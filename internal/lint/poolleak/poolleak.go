// Package poolleak implements the conduitlint analyzer that checks
// DevicePool lifecycles: every pool a function owns must reach Close on
// all non-panic paths.
package poolleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"conduit/internal/lint/analysis"
	"conduit/internal/lint/cfg"
)

// Analyzer checks that owned DevicePools are closed on every path.
var Analyzer = &analysis.Analyzer{
	Name: "poolleak",
	Doc: `require Close on every non-panic path for owned DevicePools

Deployment.Prefork attaches a DevicePool: a background refiller
goroutine plus a buffer of pre-forked device clones. The serving tier's
"drain leaves no leaked forks" property (pinned dynamically by the
drain tests) holds only if every pool is eventually Closed — an
unclosed pool leaks its refiller and up to depth full device images for
the life of the process. This analyzer pins the static half: within a
function, any pool obtained from Prefork (or a DevicePool returned by
any call) that stays function-local must reach Close on every
control-flow path that returns normally.

The obligation is discharged, lostcancel-style, when on a path the pool
(or the deployment it is attached to) is Closed — directly or in a
defer — or when ownership demonstrably leaves the function: the pool or
its deployment is returned, stored into a field, global, slice, map, or
channel, captured by a closure, or passed to another call. A bare
"dep.Prefork(n)" statement transfers the obligation to the receiving
deployment, matching the facade's idiom of closing pools through
Deployment.Close / Cluster.Close / Server drain. Paths that end in
panic or os.Exit are exempt, as are functions using goto (skipped, not
guessed) and test files.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.EachFunc(func(body *ast.BlockStmt) { checkFunc(pass, body) })
	return nil
}

// An obligation is one acquisition that must be discharged.
type obligation struct {
	pos  token.Pos
	stmt ast.Node       // the acquiring statement (node in the CFG)
	vars []types.Object // pool var and/or receiver deployment var
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var obls []obligation
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed as its own function
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !acquiresPool(pass, call) {
				return true
			}
			var vars []types.Object
			allBlank := true
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					return true // stored straight into a structure: escapes
				}
				if id.Name == "_" {
					continue
				}
				allBlank = false
				if obj := pass.TypesInfo.ObjectOf(id); isLocalVar(obj) {
					vars = append(vars, obj)
				} else {
					return true // assigned to a global or similar: escapes
				}
			}
			if r := localReceiver(pass, call, body); r != nil {
				vars = append(vars, r)
			} else if allBlank {
				// Result discarded and the receiver is not a trackable
				// body-local: nothing to pin the obligation to (e.g. the
				// deployment is a field or parameter and its owner
				// carries the Close).
				if receiverOwnedElsewhere(pass, call, body) {
					return true
				}
			}
			if len(vars) == 0 && allBlank {
				pass.Reportf(call.Pos(),
					"result of %s discarded and never reachable for Close; the pool's refiller goroutine and buffered forks leak", callName(call))
				return true
			}
			obls = append(obls, obligation{pos: call.Pos(), stmt: n, vars: vars})
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok || !acquiresPool(pass, call) {
				return true
			}
			if r := localReceiver(pass, call, body); r != nil {
				obls = append(obls, obligation{pos: call.Pos(), stmt: n, vars: []types.Object{r}})
			}
			// Receiver escapes or is non-local: the caller of this
			// function owns the deployment and its Close.
		}
		return true
	})
	if len(obls) == 0 {
		return
	}
	g := cfg.New(body, pass.TypesInfo)
	if g.Unsupported {
		return
	}
	for _, o := range obls {
		check(pass, g, o)
	}
}

// check walks every path from the obligation's statement looking for one
// that reaches Exit without discharging it.
func check(pass *analysis.Pass, g *cfg.Graph, o obligation) {
	// Locate the obligation's block and node index.
	var start *cfg.Block
	idx := -1
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == o.stmt {
				start, idx = b, i
				break
			}
		}
		if start != nil {
			break
		}
	}
	if start == nil {
		return // unreachable code
	}
	// A discharge in a defer covers every exit path.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if d, ok := n.(*ast.DeferStmt); ok && discharges(pass, d, o.vars) {
				return
			}
		}
	}
	// DFS over blocks; a block is "clean" if traversal may pass through
	// it without discharging. Memoize visited blocks to terminate loops.
	if leaks(pass, start, idx+1, o, map[*cfg.Block]bool{}, g) {
		pass.Reportf(o.pos,
			"pool acquired here may reach a return without Close; close it (or its deployment) on every non-panic path")
	}
}

func leaks(pass *analysis.Pass, b *cfg.Block, from int, o obligation, seen map[*cfg.Block]bool, g *cfg.Graph) bool {
	for i := from; i < len(b.Nodes); i++ {
		if discharges(pass, b.Nodes[i], o.vars) {
			return false
		}
	}
	if b == g.Exit {
		return true
	}
	if len(b.Succs) == 0 {
		return false // panic/exit path
	}
	for _, s := range b.Succs {
		if seen[s] {
			continue
		}
		seen[s] = true
		if leaks(pass, s, 0, o, seen, g) {
			return true
		}
	}
	return false
}

// discharges reports whether node n releases or transfers any of vars.
func discharges(pass *analysis.Pass, n ast.Node, vars []types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// v.Close() / dep.Close() discharge; so does passing the
			// pool or deployment to any other call (ownership transfer).
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if obj := pass.IdentObj(sel.X); obj != nil && isTracked(obj, vars) {
					if sel.Sel.Name == "Close" {
						found = true
						return false
					}
				}
			}
			for _, arg := range n.Args {
				if obj := pass.IdentObj(arg); obj != nil && isTracked(obj, vars) {
					found = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsTracked(pass, res, vars) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			// Storing the pool anywhere non-local transfers ownership.
			for i, lhs := range n.Lhs {
				if _, ok := lhs.(*ast.Ident); ok {
					// Local rebinding of another var; only an escape if
					// the LHS is non-local and RHS mentions a tracked var.
					if obj := pass.TypesInfo.ObjectOf(lhs.(*ast.Ident)); obj != nil && !isLocalVar(obj) {
						if i < len(n.Rhs) && mentionsTracked(pass, n.Rhs[i], vars) {
							found = true
							return false
						}
					}
					continue
				}
				if i < len(n.Rhs) && mentionsTracked(pass, n.Rhs[i], vars) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if mentionsTracked(pass, n.Value, vars) {
				found = true
				return false
			}
		case *ast.FuncLit:
			for _, v := range vars {
				if capturesObj(pass, n, v) {
					found = true
					return false
				}
			}
			return false
		}
		return true
	})
	return found
}

func isTracked(obj types.Object, vars []types.Object) bool {
	for _, v := range vars {
		if v == obj {
			return true
		}
	}
	return false
}

func mentionsTracked(pass *analysis.Pass, e ast.Expr, vars []types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && isTracked(obj, vars) {
				found = true
			}
		}
		return !found
	})
	return found
}

func capturesObj(pass *analysis.Pass, fn *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// acquiresPool reports whether call returns a *DevicePool (the facade's
// Prefork, or any constructor-shaped source of a pool).
func acquiresPool(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil {
		return false
	}
	// Pool() accessors return the already-attached pool without
	// transferring ownership; only Prefork-shaped acquisitions oblige.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name != "Prefork" {
		return false
	}
	return isDevicePoolType(t) || isDevicePoolSlice(t)
}

func isDevicePoolSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isDevicePoolType(s.Elem())
}

func isDevicePoolType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "DevicePool"
}

// localReceiver returns the receiver object when call is a method call
// on a variable declared inside body (dep.Prefork(...) on a dep this
// function created), else nil. Parameters, fields, and globals are owned
// by someone who can still reach the deployment and close it.
func localReceiver(pass *analysis.Pass, call *ast.CallExpr, body *ast.BlockStmt) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj := pass.IdentObj(sel.X)
	if isLocalVar(obj) && obj.Pos() >= body.Pos() && obj.Pos() <= body.End() {
		return obj
	}
	return nil
}

// receiverOwnedElsewhere reports whether the method receiver is anything
// but a body-declared local (a field, global, parameter, element, or
// call result): such a deployment outlives this function and carries the
// Close obligation with its owner.
func receiverOwnedElsewhere(pass *analysis.Pass, call *ast.CallExpr, body *ast.BlockStmt) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, ok := sel.X.(*ast.Ident); !ok {
		return true
	}
	return localReceiver(pass, call, body) == nil
}

// isLocalVar reports whether obj is a function-local variable (including
// parameters, whose pools the caller can still reach and close).
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return !v.IsField() && v.Parent() != v.Pkg().Scope()
}

// callName renders the callee for a diagnostic (e.g. "dep.Prefork").
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
