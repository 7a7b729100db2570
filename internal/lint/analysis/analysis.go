// Package analysis defines the analyzer interface for conduitlint, the
// repository's static-analysis suite. It is a deliberately small,
// API-compatible subset of golang.org/x/tools/go/analysis — Name/Doc/Run
// on the analyzer, Fset/Files/Pkg/TypesInfo/Report on the pass — so that
// each checker reads like a stock go/analysis analyzer and could be
// ported to the upstream framework by changing one import. The subset
// exists because this module builds hermetically from the standard
// library alone: the toolchain image carries no x/tools module, and the
// determinism checkers must run on every build, not only where a module
// proxy is reachable.
//
// The two loaders — internal/lint/driver's `go list` loader behind
// cmd/conduitlint, and internal/lint/analysistest's testdata loader for
// golden tests — type-check a package with driver.Check and run the
// analyzers with driver.Run. Neither loads _test.go files, so analyzers
// never see one: the conduitlint invariants are properties of shipped
// simulator code, which tests assert from outside and are free to sleep,
// time, and seed. Facts, analyzer dependencies, and suggested fixes are
// intentionally out of scope: every conduitlint analyzer is
// package-local and report-only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and the
	// allowlist. It must be a valid Go identifier.
	Name string

	// Doc is the help text: one summary line, a blank line, then detail.
	Doc string

	// Run applies the analyzer to a single type-checked package.
	// It reports findings via pass.Report and returns an error only for
	// internal failures, never for findings.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with one type-checked package and a sink
// for its diagnostics. Analyzers must not retain the Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// EachFunc calls visit with the body of every function declaration and
// function literal in the package, an enclosing function before the
// literals nested in it. Analyzers whose scope is "within one function"
// walk with it; bodiless declarations are skipped.
func (p *Pass) EachFunc(visit func(body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				visit(body)
			}
			return true
		})
	}
}

// IdentObj returns the object e denotes when e is a bare identifier,
// else nil.
func (p *Pass) IdentObj(e ast.Expr) types.Object {
	if id, ok := e.(*ast.Ident); ok {
		return p.TypesInfo.ObjectOf(id)
	}
	return nil
}
