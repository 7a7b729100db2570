// Package driver loads type-checked packages and executes the
// conduitlint analyzers. `conduitlint ./...` enumerates packages with
// `go list -export -json -deps`, type-checks each main-module package
// against the build cache's export data, and runs every analyzer — no
// network, no module downloads, nothing beyond the standard toolchain.
//
// Load (the one go list and type-check) is shared with internal/lint's
// whole-module checks, and Check (the one type-check) and Run (the one
// pass runner) with internal/lint/analysistest, so a test sees exactly
// what the command sees. Main filters diagnostics through the committed
// allowlist (internal/lint/allow); analysistest and the staleness
// meta-test see raw diagnostics instead.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"conduit/internal/lint/allow"
	"conduit/internal/lint/analysis"
)

// A Finding is one diagnostic with enough context to print, filter, and
// compare against the allowlist.
type Finding struct {
	Analyzer string
	Pkg      string // import path
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (conduitlint:%s)", f.Position, f.Message, f.Analyzer)
}

// Check type-checks one package's parsed files, resolving imports
// through imp, and returns the package with the type information every
// analyzer reads.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return pkg, info, nil
}

// Run executes every analyzer over one type-checked package and returns
// its raw findings ordered by file, line, and analyzer.
func Run(analyzers []*analysis.Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				out = append(out, Finding{
					Analyzer: a.Name,
					Pkg:      pkg.Path(),
					Position: fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path(), a.Name, err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Position.Filename != out[j].Position.Filename {
			return out[i].Position.Filename < out[j].Position.Filename
		}
		if out[i].Position.Line != out[j].Position.Line {
			return out[i].Position.Line < out[j].Position.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// Filter drops findings the allowlist exempts.
func Filter(fs []Finding, l allow.List) []Finding {
	var out []Finding
	for _, f := range fs {
		if !l.Allows(f.Analyzer, f.Pkg, f.Position.Filename) {
			out = append(out, f)
		}
	}
	return out
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Error      *struct{ Err string }
	Module     *struct{ Main bool }
}

// A Package is one type-checked main-module package: its non-test
// files and the type information every analyzer reads.
type Package struct {
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Program is the main-module packages one Load type-checked, sharing
// one file set and one importer of their dependencies' export data.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Load type-checks the main-module packages matching patterns (resolved
// in dir, the module root) against their dependencies' export data. A
// pattern that names no package, or a named package go list cannot
// load, is an error rather than an empty result.
func Load(dir string, patterns []string) (*Program, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Export,GoFiles,CgoFiles,DepOnly,Error,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exports := make(map[string]string) // import path -> export data file
	var units []listPkg
	var named error // the first package the patterns name that go list cannot load
	dec := json.NewDecoder(outPipe)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		if p.Error != nil && !p.DepOnly && named == nil {
			named = fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && p.Module.Main {
			units = append(units, p)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	if named != nil {
		return nil, named
	}

	prog := &Program{Fset: token.NewFileSet()}
	imp := importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	for _, u := range units {
		if len(u.GoFiles) == 0 || len(u.CgoFiles) > 0 {
			continue
		}
		var files []*ast.File
		for _, name := range u.GoFiles {
			f, err := parser.ParseFile(prog.Fset, filepath.Join(u.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := Check(prog.Fset, u.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, &Package{Files: files, Types: pkg, Info: info})
	}
	return prog, nil
}

// Analyze runs every analyzer over every package of p and returns the
// raw (unfiltered) findings, package by package.
func (p *Program) Analyze(analyzers []*analysis.Analyzer) ([]Finding, error) {
	var all []Finding
	for _, pkg := range p.Packages {
		fs, err := Run(analyzers, p.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}
