// Package cfg builds an intraprocedural control-flow graph over a
// function body's statement list, for the path-sensitive conduitlint
// analyzer (arenaowner). It is a small, conservative analogue
// of golang.org/x/tools/go/cfg: blocks hold ast.Nodes in execution
// order, edges follow if/for/range/switch/select/branch control flow,
// and calls to provably non-returning functions (panic, os.Exit,
// log.Fatal*, runtime.Goexit, (*testing.common).Fatal*) terminate their
// path without reaching Exit — which is what lets clients reason about
// "all non-panic paths".
//
// The builder never guesses on constructs it does not model: a goto
// marks the graph Unsupported and clients skip the function rather than
// report on an unsound graph.
package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A Block is a straight-line sequence of nodes with explicit successors.
type Block struct {
	// Nodes are statements (and the cond/tag expressions of the control
	// statement that ends the block) in execution order.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
	// Index is the block's position in Graph.Blocks.
	Index int
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block // every non-panic path ends here
	Blocks []*Block
	// Unsupported is set when the body uses control flow the builder
	// does not model (goto). Clients must not draw conclusions from an
	// unsupported graph.
	Unsupported bool
}

// New builds the graph for body. info may be nil; with type information
// the builder recognizes non-returning calls (os.Exit, log.Fatal, ...)
// in addition to the builtin panic.
func New(body *ast.BlockStmt, info *types.Info) *Graph {
	b := &builder{g: &Graph{}, info: info}
	b.g.Exit = b.newBlock() // Exit first so it exists for early returns
	entry := b.newBlock()
	b.g.Entry = entry
	last := b.stmtList(body.List, entry)
	b.link(last, b.g.Exit)
	return b.g
}

type loopFrame struct {
	label          string
	breakTarget    *Block
	continueTarget *Block
}

type builder struct {
	g     *Graph
	info  *types.Info
	loops []loopFrame
	// pendingLabel is the label naming the next loop/switch statement.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// link adds an edge from from to to. A nil from means the predecessor
// path already terminated (return/panic/branch) and there is no edge.
func (b *builder) link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) stmtList(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt extends the graph with s starting at cur and returns the block
// where execution continues afterwards (nil if s never falls through).
func (b *builder) stmt(s ast.Stmt, cur *Block) *Block {
	if cur == nil {
		// Unreachable code after return/branch: give it a detached
		// block so its nodes still exist, but nothing links to it.
		cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		join := b.newBlock()
		thenEntry := b.newBlock()
		b.link(cur, thenEntry)
		b.link(b.stmtList(s.Body.List, thenEntry), join)
		if s.Else != nil {
			elseEntry := b.newBlock()
			b.link(cur, elseEntry)
			b.link(b.stmt(s.Else, elseEntry), join)
		} else {
			b.link(cur, join)
		}
		return join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		head := b.newBlock()
		exit := b.newBlock()
		post := b.newBlock()
		b.link(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.link(head, exit)
		}
		// With no cond the only way out is break (or return inside).
		bodyEntry := b.newBlock()
		b.link(head, bodyEntry)
		b.loops = append(b.loops, loopFrame{label, exit, post})
		bodyEnd := b.stmtList(s.Body.List, bodyEntry)
		b.loops = b.loops[:len(b.loops)-1]
		b.link(bodyEnd, post)
		if s.Post != nil {
			_ = b.stmt(s.Post, post)
		}
		b.link(post, head)
		return exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		cur.Nodes = append(cur.Nodes, s.X)
		head := b.newBlock()
		exit := b.newBlock()
		b.link(cur, head)
		b.link(head, exit) // range may be empty / exhausted
		if s.Key != nil {
			head.Nodes = append(head.Nodes, s.Key)
		}
		if s.Value != nil {
			head.Nodes = append(head.Nodes, s.Value)
		}
		bodyEntry := b.newBlock()
		b.link(head, bodyEntry)
		b.loops = append(b.loops, loopFrame{label, exit, head})
		bodyEnd := b.stmtList(s.Body.List, bodyEntry)
		b.loops = b.loops[:len(b.loops)-1]
		b.link(bodyEnd, head)
		return exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return b.switchStmt(s, cur)

	case *ast.SelectStmt:
		label := b.takeLabel()
		join := b.newBlock()
		b.loops = append(b.loops, loopFrame{label, join, nil})
		for _, clause := range s.Body.List {
			c := clause.(*ast.CommClause)
			entry := b.newBlock()
			b.link(cur, entry)
			if c.Comm != nil {
				entry = b.stmt(c.Comm, entry)
			}
			b.link(b.stmtList(c.Body, entry), join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever.
			return nil
		}
		return join

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.link(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		cur.Nodes = append(cur.Nodes, s)
		switch s.Tok {
		case token.GOTO:
			b.g.Unsupported = true
			return nil
		case token.BREAK:
			if t := b.findLoop(s.Label, true); t != nil {
				b.link(cur, t)
			}
			return nil
		case token.CONTINUE:
			if t := b.findLoop(s.Label, false); t != nil {
				b.link(cur, t)
			}
			return nil
		case token.FALLTHROUGH:
			// Handled by switchStmt via clause chaining; reaching here
			// (malformed position) just ends the path.
			return nil
		}
		return nil

	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
			return b.stmt(s.Stmt, cur)
		}
		// A label on a plain statement exists only as a goto target.
		b.g.Unsupported = true
		return b.stmt(s.Stmt, cur)

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.noReturn(call) {
			return nil // panic path: never reaches Exit
		}
		return cur

	default:
		// Assignments, declarations, defer, go, send, inc/dec, empty.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

func (b *builder) switchStmt(s ast.Stmt, cur *Block) *Block {
	label := b.takeLabel()
	var init ast.Stmt
	var tag ast.Node
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, clauses = s.Init, s.Body.List
		if s.Tag != nil {
			tag = s.Tag
		}
	case *ast.TypeSwitchStmt:
		init, clauses = s.Init, s.Body.List
		tag = s.Assign
	}
	if init != nil {
		cur = b.stmt(init, cur)
	}
	if tag != nil {
		cur.Nodes = append(cur.Nodes, tag)
	}
	join := b.newBlock()
	b.loops = append(b.loops, loopFrame{label, join, nil})

	// Build every clause body first so fallthrough can chain into the
	// next clause's entry.
	entries := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		entries[i] = b.newBlock()
		b.link(cur, entries[i])
		if len(clauses[i].(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}
	for i, clause := range clauses {
		c := clause.(*ast.CaseClause)
		body := c.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				body = body[:n-1]
			}
		}
		end := b.stmtList(body, entries[i])
		if fallsThrough && i+1 < len(entries) {
			b.link(end, entries[i+1])
		} else {
			b.link(end, join)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	if !hasDefault {
		b.link(cur, join) // no case may match
	}
	return join
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findLoop resolves a break (wantBreak) or continue target. Break also
// targets switch/select frames; continue skips them.
func (b *builder) findLoop(label *ast.Ident, wantBreak bool) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := b.loops[i]
		if label != nil && f.label != label.Name {
			continue
		}
		if wantBreak {
			return f.breakTarget
		}
		if f.continueTarget != nil {
			return f.continueTarget
		}
	}
	return nil
}

// noReturn reports whether call provably never returns.
func (b *builder) noReturn(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if fn.Name == "panic" && b.isBuiltin(fn) {
			return true
		}
	case *ast.SelectorExpr:
		if b.info == nil {
			return false
		}
		sel, ok := b.info.Selections[fn]
		if ok {
			// Method: (*testing.common).Fatal/Fatalf/FailNow/Skip* end
			// the goroutine via runtime.Goexit.
			obj := sel.Obj()
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "testing" {
				switch obj.Name() {
				case "Fatal", "Fatalf", "FailNow", "SkipNow", "Skipf", "Skip":
					return true
				}
			}
			return false
		}
		// Package-level function.
		if obj, ok := b.info.Uses[fn.Sel].(*types.Func); ok && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "os":
				return obj.Name() == "Exit"
			case "log":
				return strings.HasPrefix(obj.Name(), "Fatal") || strings.HasPrefix(obj.Name(), "Panic")
			case "runtime":
				return obj.Name() == "Goexit"
			}
		}
	}
	return false
}

func (b *builder) isBuiltin(id *ast.Ident) bool {
	if b.info == nil {
		return true // best effort without types
	}
	_, ok := b.info.Uses[id].(*types.Builtin)
	return ok
}
