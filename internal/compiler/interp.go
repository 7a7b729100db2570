package compiler

import (
	"fmt"

	"conduit/internal/arena"
	"conduit/internal/isa"
	"conduit/internal/vecmath"
)

// Interpret executes src scalar-wise, lane by lane — the reference
// semantics the vectorized program must reproduce bit-for-bit.
//
// Loops execute over whole vector blocks (iteration counts round up to the
// vector width, matching the padded page layout), and neighbor references
// A[i+k] wrap within their vector block, exactly as the emitted shuffle
// instructions behave. The returned map holds each array's final contents
// (padded to whole blocks).
//
// The evaluation itself is block-vectorized through the evaluator every
// execution substrate shares (isa.Apply, reached via irOp) — the scalar
// semantics are defined by evalLane (kept as the oracle for the
// interpreter's own differential test), and every kernel is differentially
// tested against the same scalar semantics, so the result is bit-identical
// to lane-serial evaluation.
func Interpret(src *Source, pageSize int) (map[string][]byte, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	elem := src.Elem()
	if pageSize <= 0 || pageSize%elem != 0 {
		return nil, fmt.Errorf("compiler: page size %d incompatible with element size %d", pageSize, elem)
	}
	lanes := pageSize / elem
	mem := make(map[string][]byte, len(src.Arrays))
	for _, a := range src.Arrays {
		blocks := (a.Len + lanes - 1) / lanes
		buf := make([]byte, blocks*pageSize)
		if a.Fill != nil {
			a.Fill(0, buf[:a.Len*a.Elem])
		}
		mem[a.Name] = buf
	}

	ev := &blockEval{
		mem:   mem,
		elem:  elem,
		lanes: lanes,
		pool:  arena.New(pageSize),
	}
	mask := vecmath.Mask(elem)
	for _, st := range src.Stmts {
		l, ok := st.(Loop)
		if !ok {
			continue // pure control work has no data effect
		}
		blocks := (l.N + lanes - 1) / lanes
		for b := 0; b < blocks; b++ {
			base := b * lanes
			for _, a := range l.Body {
				out, owned, err := ev.eval(a.Value, base)
				if err != nil {
					return nil, err
				}
				tgt := mem[a.Target][base*elem : (base+lanes)*elem]
				if a.Reduce {
					sum := vecmath.ReduceAdd(out, elem) & mask
					vecmath.Broadcast(tgt, elem, sum)
				} else {
					copy(tgt, out)
				}
				if owned {
					ev.pool.Put(out)
				}
			}
		}
	}
	return mem, nil
}

// blockEval evaluates expressions over one vector block at a time,
// producing pageSize-byte buffers. Returned buffers are either owned
// (pool-allocated intermediates the caller must Put back) or borrowed
// views into mem (never written).
type blockEval struct {
	mem   map[string][]byte
	elem  int
	lanes int
	pool  *arena.Pool
}

// eval computes e for the block starting at lane base.
func (ev *blockEval) eval(e Expr, base int) ([]byte, bool, error) {
	elem, lanes := ev.elem, ev.lanes
	switch v := e.(type) {
	case Lit:
		buf := ev.pool.Get()
		vecmath.Broadcast(buf, elem, v.Value)
		return buf, true, nil
	case Ref:
		block := ev.mem[v.Name][base*elem : (base+lanes)*elem]
		rot := ((v.Offset % lanes) + lanes) % lanes
		if rot == 0 {
			return block, false, nil
		}
		buf := ev.pool.Get()
		vecmath.Shuffle(buf, block, elem, rot)
		return buf, true, nil
	case Un:
		if v.Op != OpNot {
			return nil, false, fmt.Errorf("compiler: unary %d unsupported", v.Op)
		}
		x, owned, err := ev.eval(v.X, base)
		if err != nil {
			return nil, false, err
		}
		dst := x
		if !owned {
			dst = ev.pool.Get()
		}
		return dst, true, isa.Apply(isa.OpNot, dst, [][]byte{x}, elem, false, 0)
	case Bin:
		op, err := irOp(v.Op)
		k, kernel := op.Kernel()
		if err != nil || !kernel || v.Op == OpNot {
			return nil, false, fmt.Errorf("compiler: unmapped lane op %d", v.Op)
		}
		x, xo, err := ev.eval(v.X, base)
		if err != nil {
			return nil, false, err
		}
		// Literal right operands take the immediate forms directly.
		if lit, isLit := v.Y.(Lit); isLit {
			dst := x
			if !xo {
				dst = ev.pool.Get()
			}
			imm := lit.Value
			if !op.ImmReplacesSrc() {
				// The literal shift count participates as a masked lane
				// value, exactly as evalLane computes it.
				imm &= vecmath.Mask(elem)
			}
			return dst, true, isa.Apply(op, dst, [][]byte{x}, elem, true, imm)
		}
		y, yo, err := ev.eval(v.Y, base)
		if err != nil {
			if xo {
				ev.pool.Put(x)
			}
			return nil, false, err
		}
		dst := x
		switch {
		case xo:
		case yo:
			dst = y
		default:
			dst = ev.pool.Get()
		}
		if op.Arity() == 2 {
			err = isa.Apply(op, dst, [][]byte{x, y}, elem, false, 0)
		} else {
			// A shift by a lane-varying count has no IR form (Compile
			// rejects it); the reference semantics shift by the y lane.
			vecmath.Apply(k, dst, x, y, elem)
		}
		if xo && yo {
			ev.pool.Put(y) // dst reused x; y is now dead
		}
		return dst, true, err
	case Cond:
		m, mo, err := ev.eval(v.Mask, base)
		if err != nil {
			return nil, false, err
		}
		a, ao, err := ev.eval(v.A, base)
		if err != nil {
			if mo {
				ev.pool.Put(m)
			}
			return nil, false, err
		}
		b, bo, err := ev.eval(v.B, base)
		if err != nil {
			if mo {
				ev.pool.Put(m)
			}
			if ao {
				ev.pool.Put(a)
			}
			return nil, false, err
		}
		// Both branches are pure (division by zero saturates rather than
		// trapping), so evaluating them unconditionally is lane-exact for
		// every valid source. The one divergence from the lane-serial
		// oracle is error behavior: an unsupported operation inside a
		// never-selected branch errors here, where per-lane short-circuit
		// evaluation would have skipped it.
		var dst []byte
		switch {
		case mo:
			dst = m
		case ao:
			dst = a
		case bo:
			dst = b
		default:
			dst = ev.pool.Get()
		}
		err = isa.Apply(isa.OpSelect, dst, [][]byte{m, a, b}, elem, false, 0)
		if mo && &dst[0] != &m[0] {
			ev.pool.Put(m)
		}
		if ao && &dst[0] != &a[0] {
			ev.pool.Put(a)
		}
		if bo && &dst[0] != &b[0] {
			ev.pool.Put(b)
		}
		return dst, true, err
	default:
		return nil, false, fmt.Errorf("compiler: unknown expression %T", e)
	}
}

// evalLane evaluates e for lane base+i with block-circular indexing: the
// scalar reference semantics of one lane, retained as the oracle for
// TestInterpretMatchesLaneReference.
func evalLane(src *Source, mem map[string][]byte, e Expr, base, i, lanes, elem int) (uint64, error) {
	mask := vecmath.Mask(elem)
	switch v := e.(type) {
	case Lit:
		return v.Value & mask, nil
	case Ref:
		j := ((i+v.Offset)%lanes + lanes) % lanes
		return vecmath.Load(mem[v.Name], base+j, elem), nil
	case Un:
		x, err := evalLane(src, mem, v.X, base, i, lanes, elem)
		if err != nil {
			return 0, err
		}
		if v.Op != OpNot {
			return 0, fmt.Errorf("compiler: unary %d unsupported", v.Op)
		}
		return ^x & mask, nil
	case Bin:
		x, err := evalLane(src, mem, v.X, base, i, lanes, elem)
		if err != nil {
			return 0, err
		}
		y, err := evalLane(src, mem, v.Y, base, i, lanes, elem)
		if err != nil {
			return 0, err
		}
		return applyLane(v.Op, x, y, elem), nil
	case Cond:
		m, err := evalLane(src, mem, v.Mask, base, i, lanes, elem)
		if err != nil {
			return 0, err
		}
		if m != 0 {
			return evalLane(src, mem, v.A, base, i, lanes, elem)
		}
		return evalLane(src, mem, v.B, base, i, lanes, elem)
	default:
		return 0, fmt.Errorf("compiler: unknown expression %T", e)
	}
}

// applyLane is the scalar semantics of each binary source operation.
func applyLane(op OpCode, x, y uint64, elem int) uint64 {
	mask := vecmath.Mask(elem)
	sx, sy := vecmath.ToSigned(x, elem), vecmath.ToSigned(y, elem)
	switch op {
	case OpAdd:
		return (x + y) & mask
	case OpSub:
		return (x - y) & mask
	case OpMul:
		return (x * y) & mask
	case OpDiv:
		if y == 0 {
			return mask
		}
		return (x / y) & mask
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpShl:
		return (x << y) & mask
	case OpShr:
		return x >> y
	case OpLT:
		return vecmath.Bool(sx < sy, elem)
	case OpGT:
		return vecmath.Bool(sx > sy, elem)
	case OpEQ:
		return vecmath.Bool(x == y, elem)
	case OpMin:
		if sx < sy {
			return x
		}
		return y
	case OpMax:
		if sx > sy {
			return x
		}
		return y
	default:
		panic(fmt.Sprintf("compiler: unmapped lane op %d", op))
	}
}
