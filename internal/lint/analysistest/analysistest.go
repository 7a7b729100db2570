// Package analysistest runs a conduitlint analyzer over golden test
// packages and checks its diagnostics against // want annotations, in
// the manner of golang.org/x/tools/go/analysis/analysistest.
//
// Test packages live under <analyzer dir>/testdata/src/<importpath>/,
// mirroring the upstream GOPATH-shaped layout. Like go list's GoFiles,
// the loader skips _test.go files, so a testdata test file pins that
// analyzers never see one. Packages are type-checked with driver.Check
// and analyzed with driver.Run, as conduitlint does. Imports resolve
// against testdata/src first — so a test package may import a stub
// "conduit/internal/arena" that declares just the Pool surface — and
// fall back to the real standard library, type-checked from source.
//
// An expectation is a comment of the form
//
//	v := pool.Get() // want `regexp`
//	pool.Put(v)     // want "one" "two"
//
// Each string (raw or interpreted Go literal) must match, in order, a
// diagnostic reported on that line; unmatched expectations and
// unexpected diagnostics both fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"conduit/internal/lint/analysis"
	"conduit/internal/lint/driver"
)

// Run applies a to each test package under dir/src and reports
// mismatches through t. dir is usually "testdata".
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	ld := newLoader(dir)
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			runPkg(t, ld, a, pkg)
		})
	}
}

func runPkg(t *testing.T, ld *loader, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	lp, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}

	diags, err := driver.Run([]*analysis.Analyzer{a}, ld.fset, lp.files, lp.pkg, lp.info)
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, ld.fset, lp.files)
	for _, d := range diags {
		key := lineKey{filepath.Base(d.Position.Filename), d.Position.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Position, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matched `%s`", key.file, key.line, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]*want {
	t.Helper()
	out := make(map[lineKey][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				key := lineKey{filepath.Base(posn.Filename), posn.Line}
				for _, lit := range splitLiterals(m[1]) {
					pat, err := unquote(lit)
					if err != nil {
						t.Fatalf("%s: bad want literal %s: %v", posn, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, pat, err)
					}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}

// splitLiterals splits `"a" "b"` or "`a` `b`" into string literals.
func splitLiterals(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		for quote == '"' && end >= 0 && s[end] == '\\' { // skip escaped quote
			next := strings.IndexByte(s[end+2:], quote)
			if next < 0 {
				end = -1
				break
			}
			end += next + 1
		}
		if end < 0 {
			break
		}
		out = append(out, s[:end+2])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

func unquote(lit string) (string, error) {
	if strings.HasPrefix(lit, "`") {
		return strings.Trim(lit, "`"), nil
	}
	return strconv.Unquote(lit)
}

// loader type-checks testdata packages, resolving imports against
// testdata/src before the standard library.
type loader struct {
	root string // testdata dir
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPkg
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*loadedPkg),
	}
}

func (ld *loader) load(pkgPath string) (*loadedPkg, error) {
	if lp, ok := ld.pkgs[pkgPath]; ok {
		return lp, nil
	}
	dir := filepath.Join(ld.root, "src", filepath.FromSlash(pkgPath))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") || strings.HasSuffix(ent.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, ent.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg, info, err := driver.Check(ld.fset, pkgPath, files, importerFunc(ld.importPkg))
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{pkg: pkg, files: files, info: info}
	ld.pkgs[pkgPath] = lp
	return lp, nil
}

func (ld *loader) importPkg(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(ld.root, "src", filepath.FromSlash(path))); err == nil {
		lp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return ld.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
