package conduit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citedDocs are the documents whose code references TestDocsCiteWhatExists
// resolves.
var citedDocs = []string{"README.md", "docs/ARCHITECTURE.md", "docs/REPRO.md"}

// docsUnresolved lists the references the docs may cite although no
// declaration in the module has them, each with its reason. Entries may
// only be removed: an entry that resolves again or is no longer cited
// fails the test.
var docsUnresolved = map[string]string{}

var (
	docsSpan   = regexp.MustCompile("`[^`\n]+`")
	docsTest   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	docsMember = regexp.MustCompile(`\b([A-Za-z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)`)
	// docsMD is a Markdown file a Go comment cites, and the section it
	// names when a quoted heading follows on the same line.
	docsMD = regexp.MustCompile(`([A-Za-z0-9_./-]*[A-Za-z0-9_]\.md)\b(?:'s|,)? ?(?:"([^"\n]+)")?`)
	// docsFileExt are the suffixes that make X.ext a file name, not a
	// Go reference.
	docsFileExt = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "csv": true,
		"txt": true, "yml": true, "allow": true, "golden": true, "prof": true, "test": true}
)

// moduleDecls is what the docs can cite: every top-level function,
// method, type, variable and constant of the module, test files included,
// and every field.
type moduleDecls struct {
	funcs    map[string]bool            // test, benchmark and fuzz functions
	pkgs     map[string]map[string]bool // package name -> its top-level identifiers and methods
	members  map[string]map[string]bool // type name -> its methods and fields
	embedded map[string][]string        // type name -> the types it embeds
	mdCites  [][3]string                // Go file, the *.md it cites, the quoted heading or ""
}

func loadModuleDecls(t *testing.T) *moduleDecls {
	t.Helper()
	d := &moduleDecls{funcs: map[string]bool{}, pkgs: map[string]map[string]bool{},
		members: map[string]map[string]bool{}, embedded: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		d.add(f)
		for _, g := range f.Comments {
			for _, m := range docsMD.FindAllStringSubmatch(g.Text(), -1) {
				d.mdCites = append(d.mdCites, [3]string{path, m[1], m[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *moduleDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
}

func (d *moduleDecls) add(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if d.pkgs[pkg] == nil {
		d.pkgs[pkg] = map[string]bool{}
	}
	top := d.pkgs[pkg]
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				top[decl.Name.Name] = true
				d.funcs[decl.Name.Name] = true
				continue
			}
			// The docs write a method as pkg.Method too (`ssd.RunIdeal`).
			top[decl.Name.Name] = true
			if typ := typeName(decl.Recv.List[0].Type); typ != "" {
				d.member(typ, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						top[n.Name] = true
					}
				case *ast.TypeSpec:
					top[spec.Name.Name] = true
					d.typeMembers(spec.Name.Name, spec.Type)
				}
			}
		}
	}
}

// typeMembers records a type's fields and interface methods, and the
// types it embeds.
func (d *moduleDecls) typeMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch expr := expr.(type) {
	case *ast.StructType:
		fields = expr.Fields
	case *ast.InterfaceType:
		fields = expr.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if emb := typeName(f.Type); emb != "" {
				d.embedded[typ] = append(d.embedded[typ], emb)
			}
		}
		for _, n := range f.Names {
			d.member(typ, n.Name)
		}
	}
}

// typeName is the bare name of a (possibly pointer, generic or
// package-qualified) type expression.
func typeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// hasMember reports whether some type named typ has name as a method or
// field, directly or through an embedded type.
func (d *moduleDecls) hasMember(typ, name string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if d.members[typ][name] {
		return true
	}
	for _, emb := range d.embedded[typ] {
		if d.hasMember(emb, name, seen) {
			return true
		}
	}
	return false
}

// refs extracts the references a document cites inside backticks: test,
// benchmark and fuzz function names, Type.Member, and pkg.Ident where pkg
// names a package of the module.
func (d *moduleDecls) refs(doc string) []string {
	var out []string
	for _, span := range docsSpan.FindAllString(doc, -1) {
		out = append(out, docsTest.FindAllString(span, -1)...)
		for _, m := range docsMember.FindAllStringSubmatch(span, -1) {
			head, name := m[1], m[2]
			switch {
			case docsFileExt[name] || strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark") || strings.HasPrefix(name, "Fuzz"):
			case head[0] >= 'A' && head[0] <= 'Z':
				out = append(out, m[0])
			case d.pkgs[head] != nil && name[0] >= 'A' && name[0] <= 'Z':
				out = append(out, m[0])
			}
		}
	}
	return out
}

func (d *moduleDecls) resolves(ref string) bool {
	head, name, qualified := strings.Cut(ref, ".")
	switch {
	case !qualified:
		return d.funcs[ref]
	case head[0] >= 'A' && head[0] <= 'Z':
		return d.hasMember(head, name, map[string]bool{})
	default:
		return d.pkgs[head][name]
	}
}

// TestDocsCiteWhatExists resolves every test, benchmark and fuzz function
// name, every Type.Method (or Type.Field) and every pkg.Ident that README,
// ARCHITECTURE and REPRO cite in backticks against the module's
// declarations, so the docs cannot go on naming code that was renamed or
// deleted. The other way round, every *.md a Go comment cites must exist,
// beside the comment's file or from the module root, and a heading it
// quotes must begin a heading or a bold paragraph lead there.
func TestDocsCiteWhatExists(t *testing.T) {
	d := loadModuleDecls(t)
	for _, c := range d.mdCites {
		from, name, heading := c[0], c[1], c[2]
		doc, err := os.ReadFile(filepath.Join(filepath.Dir(from), name))
		if err != nil {
			doc, err = os.ReadFile(name)
		}
		switch {
		case err != nil:
			t.Errorf("%s cites %s, which does not exist", from, name)
		case heading != "" && !regexp.MustCompile(`(?m)^(?:#+ |\*\*)`+regexp.QuoteMeta(heading)).Match(doc):
			t.Errorf("%s cites %s %q, which has no such heading", from, name, heading)
		}
	}
	cited := map[string]bool{}
	for _, path := range citedDocs {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range d.refs(string(doc)) {
			cited[ref] = true
			if !d.resolves(ref) && docsUnresolved[ref] == "" {
				t.Errorf("%s cites `%s`, which no declaration in the module has", path, ref)
			}
		}
	}
	stale := make([]string, 0, len(docsUnresolved))
	for ref := range docsUnresolved {
		if !cited[ref] || d.resolves(ref) {
			stale = append(stale, ref)
		}
	}
	sort.Strings(stale)
	for _, ref := range stale {
		t.Errorf("docsUnresolved entry %q is stale (resolves, or no longer cited); delete it", ref)
	}
}
