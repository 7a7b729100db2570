// Package arenaowner implements the conduitlint analyzer that encodes
// the arena page ownership rule: a page is recycled at most once and is
// dead — never read, stored, or returned — afterwards.
package arenaowner

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"conduit/internal/lint/analysis"
	"conduit/internal/lint/cfg"
)

// Analyzer checks arena page lifetimes along control-flow paths.
var Analyzer = &analysis.Analyzer{
	Name: "arenaowner",
	Doc: `enforce the arena page ownership rule along control-flow paths

internal/arena free lists make the data plane allocation-free only
because of a discipline the type system cannot see: a page obtained
from a Pool (Get/GetZeroed/GetCopy) is privately owned until it is
stored into a device structure, and once handed back — Pool.Put or any
Recycle wrapper — it is dead. Recycling twice puts the same buffer on
the free list twice, so two future Gets alias one page and silently
corrupt results; touching or retaining a recycled page reads memory a
later Get may already be overwriting. Both bugs are heisenbugs the
example-based tests only catch when the reuse pattern lines up.

The analyzer tracks, within each function, every variable bound to a
fresh arena page and walks the function's control-flow graph:
  - a path on which the page may already be recycled reaching another
    Put/Recycle is reported (double recycle);
  - a path on which the page is definitely recycled reaching a read,
    store, return, send, or closure capture of it is reported
    (use after recycle).
Storing a live page (field/global/slice/map assignment, passing it to a
non-recycle call, returning it) transfers ownership and ends tracking.
Functions using goto are skipped rather than analyzed unsoundly. Test
files are skipped.`,
	Run: run,
}

// varState is the per-variable abstract state: a set over {live,
// recycled} since several paths merge at a join.
type varState uint8

const (
	mayLive varState = 1 << iota
	mayRecycled
)

func run(pass *analysis.Pass) error {
	pass.EachFunc(func(body *ast.BlockStmt) { checkFunc(pass, body) })
	return nil
}

type checker struct {
	pass *analysis.Pass
	// tracked maps page variables to their acquisition position.
	tracked map[types.Object]token.Pos
	// reported dedupes diagnostics across fixpoint iterations.
	reported map[token.Pos]bool
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{
		pass:     pass,
		tracked:  make(map[types.Object]token.Pos),
		reported: make(map[token.Pos]bool),
	}
	// Pass 1: find page acquisitions (v := pool.Get()). No pages, no CFG.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested closures are checked as their own functions
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || !isArenaGet(pass, call) {
			return true
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			c.tracked[obj] = id.Pos()
		}
		return true
	})
	if len(c.tracked) == 0 {
		return
	}
	g := cfg.New(body, pass.TypesInfo)
	if g.Unsupported {
		return
	}
	// Pass 2: forward dataflow to fixpoint. in[b] is the merged state at
	// b's entry; union is the join.
	in := make([]map[types.Object]varState, len(g.Blocks))
	for i := range in {
		in[i] = make(map[types.Object]varState)
	}
	worklist := []*cfg.Block{g.Entry}
	onList := map[*cfg.Block]bool{g.Entry: true}
	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		onList[b] = false
		out := c.transfer(b, clone(in[b.Index]))
		for _, s := range b.Succs {
			if mergeInto(in[s.Index], out) && !onList[s] {
				worklist = append(worklist, s)
				onList[s] = true
			}
		}
	}
}

func clone(m map[types.Object]varState) map[types.Object]varState {
	out := make(map[types.Object]varState, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeInto unions src into dst and reports whether dst changed.
func mergeInto(dst, src map[types.Object]varState) bool {
	changed := false
	for k, v := range src {
		if dst[k]|v != dst[k] {
			dst[k] |= v
			changed = true
		}
	}
	return changed
}

// transfer applies a block's nodes to state, reporting violations.
func (c *checker) transfer(b *cfg.Block, state map[types.Object]varState) map[types.Object]varState {
	for _, n := range b.Nodes {
		c.node(n, state)
	}
	return state
}

func (c *checker) node(n ast.Node, state map[types.Object]varState) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure capturing a tracked page retains it: treat as a
			// use (bug if recycled) and an ownership transfer.
			for obj := range c.capturedTracked(n) {
				c.useVar(n.Pos(), obj, state, "captured by closure")
				delete(state, obj)
			}
			return false
		case *ast.AssignStmt:
			c.assign(n, state)
			return false
		case *ast.DeferStmt, *ast.GoStmt:
			// A deferred (or spawned) call runs later: its arguments are
			// read now, but a deferred Put recycles at exit, not here.
			// Model conservatively: check the reads, then stop tracking
			// every page the call mentions.
			var call *ast.CallExpr
			if d, ok := n.(*ast.DeferStmt); ok {
				call = d.Call
			} else {
				call = n.(*ast.GoStmt).Call
			}
			c.exprUses(call.Fun, state, "used")
			for _, arg := range call.Args {
				c.exprUses(arg, state, "used")
			}
			for obj := range c.mentioned(call) {
				delete(state, obj)
			}
			return false
		case *ast.CallExpr:
			c.call(n, state)
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				c.exprUses(res, state, "returned")
			}
			for _, res := range n.Results {
				if obj := c.pass.IdentObj(res); obj != nil {
					delete(state, obj) // ownership moves to the caller
				}
			}
			return false
		case *ast.SendStmt:
			c.exprUses(n.Value, state, "sent on channel")
			if obj := c.pass.IdentObj(n.Value); obj != nil {
				delete(state, obj)
			}
			c.exprUses(n.Chan, state, "used")
			return false
		case *ast.Ident:
			if obj := c.pass.TypesInfo.ObjectOf(n); obj != nil {
				c.useVar(n.Pos(), obj, state, "used")
			}
			return true
		}
		return true
	})
}

// assign handles writes to and reads of tracked variables.
func (c *checker) assign(a *ast.AssignStmt, state map[types.Object]varState) {
	// RHS first: reads happen before the store.
	isGet := false
	if len(a.Rhs) == 1 {
		if call, ok := a.Rhs[0].(*ast.CallExpr); ok && isArenaGet(c.pass, call) {
			isGet = true
			// Still check the call's own arguments (GetCopy(src)).
			c.call(call, state)
		}
	}
	if !isGet {
		for _, rhs := range a.Rhs {
			c.node(rhs, state)
		}
	}
	for i, lhs := range a.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			obj := c.pass.TypesInfo.ObjectOf(id)
			if obj == nil {
				continue
			}
			if _, tracked := c.tracked[obj]; !tracked {
				continue
			}
			if isGet && len(a.Lhs) == 1 {
				state[obj] = mayLive // rebound to a fresh page
			} else {
				delete(state, obj) // rebound to something else entirely
			}
			continue
		}
		// Storing INTO a structure: x.f = v, s[i] = v, *p = v. The
		// stored value escapes; reads inside the index expression and
		// the stored value itself must not be recycled.
		c.exprUses(lhs, state, "used")
		if i < len(a.Rhs) {
			if obj := c.pass.IdentObj(a.Rhs[i]); obj != nil {
				if _, tracked := c.tracked[obj]; tracked {
					c.useVar(a.Rhs[i].Pos(), obj, state, "stored after being recycled")
					delete(state, obj) // ownership transferred
				}
			}
		}
	}
}

// call handles Put/Recycle releases and escapes through arguments.
func (c *checker) call(call *ast.CallExpr, state map[types.Object]varState) {
	// Examine nested calls in arguments first.
	for _, arg := range call.Args {
		if inner, ok := arg.(*ast.CallExpr); ok {
			c.call(inner, state)
		}
	}
	if isRecycleCall(c.pass, call) && len(call.Args) == 1 {
		if obj := c.pass.IdentObj(call.Args[0]); obj != nil {
			if _, tracked := c.tracked[obj]; tracked {
				if state[obj]&mayRecycled != 0 {
					c.report(call.Pos(), "page %q may already be recycled on this path; recycling twice aliases one buffer to two future Gets", obj.Name())
				}
				state[obj] = mayRecycled
				return
			}
		}
	}
	// Receiver and plain arguments are reads; passing a page to a
	// non-recycle, non-builtin call transfers ownership (e.g. storing it
	// in a device). Builtins (copy, len, cap, clear, ...) only read.
	builtin := false
	if id, ok := call.Fun.(*ast.Ident); ok {
		_, builtin = c.pass.TypesInfo.Uses[id].(*types.Builtin)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		c.exprUses(sel.X, state, "used")
	}
	for _, arg := range call.Args {
		c.exprUses(arg, state, "passed to a call")
		if builtin {
			continue
		}
		if obj := c.pass.IdentObj(arg); obj != nil {
			delete(state, obj)
		}
	}
}

// mentioned returns every tracked object referenced anywhere in n.
func (c *checker) mentioned(n ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				if _, tracked := c.tracked[obj]; tracked {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// exprUses reports any tracked, definitely-recycled variable read within
// e. A closure literal inside e is a capture, not a plain read, wherever
// it appears (returned, sent, stored).
func (c *checker) exprUses(e ast.Expr, state map[types.Object]varState, how string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			for obj := range c.capturedTracked(fl) {
				c.useVar(fl.Pos(), obj, state, "captured by closure")
				delete(state, obj)
			}
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				c.useVar(id.Pos(), obj, state, how)
			}
		}
		return true
	})
}

// useVar reports a use of obj when it is definitely recycled. "May"
// states at joins stay silent to keep the analyzer precise on the
// conditional-recycle idioms the data plane actually uses.
func (c *checker) useVar(pos token.Pos, obj types.Object, state map[types.Object]varState, how string) {
	if _, tracked := c.tracked[obj]; !tracked {
		return
	}
	if state[obj] == mayRecycled {
		c.report(pos, "page %q %s after Recycle; a recycled page may already back another Get", obj.Name(), how)
	}
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// capturedTracked returns tracked objects referenced inside fn.
func (c *checker) capturedTracked(fn *ast.FuncLit) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				if _, tracked := c.tracked[obj]; tracked {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isArenaGet reports whether call is (*arena.Pool).Get/GetZeroed/GetCopy.
func isArenaGet(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	switch fn.Name() {
	case "Get", "GetZeroed", "GetCopy":
	default:
		return false
	}
	return isArenaPoolMethod(fn)
}

// isRecycleCall reports whether call hands a page back to a free list:
// (*arena.Pool).Put, or any single-[]byte-parameter method named
// Recycle (the modules' wrappers: Core.Recycle, Module.Recycle, ...).
func isRecycleCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if fn.Name() == "Put" && isArenaPoolMethod(fn) {
		return true
	}
	if fn.Name() != "Recycle" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 {
		return false
	}
	slice, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

func isArenaPoolMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/arena")
}
