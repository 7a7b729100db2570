// Package maporder implements the conduitlint analyzer that flags
// order-sensitive work driven directly by map iteration.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"conduit/internal/lint/analysis"
)

// Analyzer flags range-over-map loops whose bodies perform
// order-sensitive effects without a subsequent deterministic sort.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: `flag order-sensitive effects driven by map iteration order

Go randomizes map iteration order per loop, so any output a
range-over-map feeds directly — an emitted table row, a CSV line, an
appended slice that is never sorted, a string or float accumulator —
differs from run to run. That is precisely the bug class that breaks
this repository's byte-identical-report guarantees (concurrent == serial
sweeps, exact cluster merges, stable committed CSVs).

Inside the body of a range over a map the analyzer flags:
  - fmt print/Fprint calls and Write*/AddRow*-style emission methods,
  - sends on channels,
  - string or floating-point compound accumulation (+=, order changes
    concatenation; float addition is not associative),
  - appends to a slice declared outside the loop, unless the slice is
    later passed to a sort (sort.* or slices.Sort*) in the same
    function — the repository's canonical collect-keys-then-sort idiom.

Integer/counter accumulation and map-to-map copies are commutative and
are not flagged. Test files are skipped.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Walk function by function so "sorted later in the same function"
	// has a well-defined scope.
	pass.EachFunc(func(body *ast.BlockStmt) { checkFunc(pass, body) })
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkRange(pass, body, rng)
		return true
	})
}

func checkRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range reports for itself.
			if n != rng {
				t := pass.TypesInfo.TypeOf(n.X)
				if t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
		case *ast.CallExpr:
			if name := emissionCall(pass, n); name != "" {
				pass.Reportf(n.Pos(),
					"%s inside range over map emits in nondeterministic order; iterate sorted keys instead", name)
				return true
			}
			if obj := appendTarget(pass, n, rng); obj != nil {
				if !sortedAfter(pass, fnBody, rng, obj) {
					pass.Reportf(n.Pos(),
						"append to %q inside range over map without a subsequent sort; collected order differs across runs", obj.Name())
				}
				return true
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside range over map delivers in nondeterministic order; iterate sorted keys instead")
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN || len(n.Lhs) != 1 {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil || within(obj.Pos(), rng) {
				return true
			}
			switch b := obj.Type().Underlying().(type) {
			case *types.Basic:
				switch {
				case b.Info()&types.IsString != 0:
					pass.Reportf(n.Pos(),
						"string concatenation into %q inside range over map depends on iteration order", id.Name)
				case b.Info()&types.IsFloat != 0:
					pass.Reportf(n.Pos(),
						"float accumulation into %q inside range over map: float addition is not associative, so the sum differs across runs; sum in sorted key order", id.Name)
				}
			}
		}
		return true
	})
}

// emissionCall reports a human-readable name if call writes output whose
// order the reader observes, else "".
func emissionCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	name := fn.Name()
	if fn.Type().(*types.Signature).Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			return "fmt." + name
		}
		return ""
	}
	// Order-observable sinks by method name: io/strings.Builder writers,
	// the repository's stats.Table row builders, and stream encoders.
	switch {
	case name == "Write", name == "WriteString", name == "WriteByte", name == "WriteRune",
		strings.HasPrefix(name, "AddRow"),
		name == "Encode",
		strings.HasPrefix(name, "Print"), strings.HasPrefix(name, "Fprint"):
		return "call to " + name
	}
	return ""
}

// appendTarget returns the object of v in `v = append(v, ...)` when v is
// declared outside the range statement, else nil.
func appendTarget(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt) types.Object {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(target)
	if obj == nil || within(obj.Pos(), rng) {
		return nil
	}
	return obj
}

// sortedAfter reports whether obj is passed to a sort.* / slices.Sort*
// call positioned after rng within fnBody.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

func within(pos token.Pos, rng *ast.RangeStmt) bool {
	return pos >= rng.Pos() && pos <= rng.End()
}
