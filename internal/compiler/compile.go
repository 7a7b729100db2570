package compiler

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"conduit/internal/isa"
)

// irOps maps each source operation to its vector IR operation.
var irOps = [...]isa.Op{
	OpAdd: isa.OpAdd, OpSub: isa.OpSub, OpMul: isa.OpMul, OpDiv: isa.OpDiv,
	OpAnd: isa.OpAnd, OpOr: isa.OpOr, OpXor: isa.OpXor, OpNot: isa.OpNot,
	OpShl: isa.OpShl, OpShr: isa.OpShr,
	OpLT: isa.OpLT, OpGT: isa.OpGT, OpEQ: isa.OpEQ, OpMin: isa.OpMin, OpMax: isa.OpMax,
	OpSelect3: isa.OpSelect,
}

// irOp maps a source operation to its vector IR operation.
func irOp(op OpCode) (isa.Op, error) {
	if int(op) >= len(irOps) {
		return 0, fmt.Errorf("compiler: unmapped opcode %d", op)
	}
	return irOps[op], nil
}

// tempsPerChunk is the number of temporary pages the compiler cycles
// through for expression intermediates within one vector chunk. Chunks get
// disjoint pools (up to maxTempChunks before pools wrap) so temporaries
// never couple the operand groups of independent chunks — which would
// defeat the loader's NDP-aware placement.
const tempsPerChunk = 24

// maxTempChunks bounds the number of disjoint per-chunk temp pools.
const maxTempChunks = 64

// LoopReport records the vectorization outcome of one loop (the
// -Rpass=loop-vectorize remarks of the paper's toolchain).
type LoopReport struct {
	Name       string
	Vectorized bool
	Reason     string // why vectorization was rejected, when it was
	Work       int64  // lane-operations in the loop
}

// Report summarizes compilation for Table 3. Work is measured statically
// (operation nodes in the source), matching Table 3's "vectorizable code
// %", which characterizes the code, not its dynamic instruction count.
type Report struct {
	Loops      []LoopReport
	TotalWork  int64 // static operation count plus scalar-region equivalents
	VectorWork int64 // static operations inside vectorized loops
}

// VectorizablePercent is Table 3's "vectorizable code %".
func (r *Report) VectorizablePercent() float64 {
	if r.TotalWork == 0 {
		return 0
	}
	return 100 * float64(r.VectorWork) / float64(r.TotalWork)
}

// Compiled is the output of compile-time preprocessing: the vectorized
// instruction stream with metadata, the array-to-page symbol table, and
// the input arrays' fillers. Prog.InputPages is the input page set;
// InputPage generates a page's initial bytes, and only a consumer that
// moves real bytes asks for them.
type Compiled struct {
	Prog   *isa.Program
	Report Report

	pageSize int
	elem     int
	arrays   map[string]array
	inputs   []inputArray // in page order
}

// array is a declared array's pages and its length in elements.
type array struct {
	pages []isa.PageID
	len   int
}

// inputArray locates an input array's pages and its initial image.
type inputArray struct {
	first, end isa.PageID // pages [first, end)
	size       int        // image bytes: Len*Elem
	fill       Fill       // nil: zeroed
}

// InputPage writes input page p's initial bytes, zero past the end of its
// array, into dst (PageSize bytes), and reports whether p is an input page.
func (c *Compiled) InputPage(p isa.PageID, dst []byte) bool {
	i := sort.Search(len(c.inputs), func(i int) bool { return c.inputs[i].end > p })
	if i == len(c.inputs) || p < c.inputs[i].first {
		return false
	}
	in := &c.inputs[i]
	off := int(p-in.first) * c.pageSize
	clear(dst)
	if in.fill != nil {
		in.fill(off, dst[:min(c.pageSize, in.size-off)])
	}
	return true
}

// ArrayPages returns the logical pages backing an array.
func (c *Compiled) ArrayPages(name string) []isa.PageID {
	return append([]isa.PageID(nil), c.arrays[name].pages...)
}

// ArrayNames lists the declared arrays in page-layout order.
func (c *Compiled) ArrayNames() []string {
	names := make([]string, 0, len(c.arrays))
	for n := range c.arrays {
		names = append(names, n)
	}
	// Order by first page for determinism (arrays never share pages, so
	// the first page is a total order).
	sort.Slice(names, func(i, j int) bool {
		return c.arrays[names[i]].pages[0] < c.arrays[names[j]].pages[0]
	})
	return names
}

// Compile vectorizes src for a device with the given page size.
func Compile(src *Source, pageSize int) (*Compiled, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	elem := src.Elem()
	// isa.Inst holds the element size in a byte, four pages in an int32.
	if elem != 1 && elem != 2 && elem != 4 || pageSize <= 0 || pageSize%elem != 0 || pageSize > math.MaxInt32/4 {
		return nil, fmt.Errorf("compiler: page size %d incompatible with element size %d", pageSize, elem)
	}
	sc := spare.Swap(nil)
	if sc == nil {
		sc = new(scratch)
	}
	defer spare.Store(sc)
	c := &compilation{
		scratch: sc.reset(),
		Compiled: Compiled{
			pageSize: pageSize,
			elem:     elem,
			arrays:   make(map[string]array, len(src.Arrays)),
		},
		lanes: pageSize / elem,
	}

	// Lay out arrays: sequential pages, padded to whole vector blocks. The
	// output pages are every array's in layout order, and each array's
	// pages are a window of them.
	var pages, inputs, inputPageCount, loops int
	for _, st := range src.Stmts {
		if _, ok := st.(Loop); ok {
			loops++
		}
	}
	c.Report.Loops = make([]LoopReport, 0, loops)
	for _, a := range src.Arrays {
		n := (a.Len + c.lanes - 1) / c.lanes
		if pages += n; a.Input {
			inputs, inputPageCount = inputs+1, inputPageCount+n
		}
	}
	outputPages := make([]isa.PageID, pages)
	for i := range outputPages {
		outputPages[i] = isa.PageID(i)
	}
	inputPages := make([]isa.PageID, 0, inputPageCount)
	c.inputs = make([]inputArray, 0, inputs)
	var next isa.PageID
	for _, a := range src.Arrays {
		first := next
		next += isa.PageID((a.Len + c.lanes - 1) / c.lanes)
		ids := outputPages[first:next:next]
		c.arrays[a.Name] = array{ids, a.Len}
		if a.Input {
			c.inputs = append(c.inputs, inputArray{first, next, a.Len * a.Elem, a.Fill})
			inputPages = append(inputPages, ids...)
		}
	}
	// Per-chunk temporary pools.
	c.tempBase = next
	next += isa.PageID(tempsPerChunk * maxTempChunks)
	c.totalPages = int(next)

	for _, st := range src.Stmts {
		switch s := st.(type) {
		case Loop:
			if err := c.compileLoop(src, s); err != nil {
				return nil, err
			}
		case ScalarWork:
			c.emitScalar(s.Cycles)
			if s.CodeUnits > 0 {
				c.Report.TotalWork += s.CodeUnits
			} else {
				c.Report.TotalWork += staticScalarUnits(s.Cycles)
			}
		default:
			return nil, fmt.Errorf("compiler: unknown statement %T", st)
		}
	}

	prog := &isa.Program{
		Name:        src.Name,
		Insts:       c.scratch.program(),
		Pages:       c.totalPages,
		InputPages:  inputPages,
		OutputPages: outputPages,
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: emitted invalid program: %w", err)
	}
	c.Prog = prog
	out := c.Compiled
	return &out, nil
}

// compilation carries emission state.
type compilation struct {
	Compiled
	*scratch
	refs       []Ref // refsIn's buffer, reused across assignments
	lanes      int
	tempBase   isa.PageID
	tempNext   [maxTempChunks]int
	totalPages int
	loopID     int32
}

// scratch is what a compilation emits into. Compilations reuse it through
// spare, and program copies it out at its final length, so compiling
// allocates the program's instructions once, whatever its length.
type scratch struct {
	insts []isa.Inst
}

// spare is the one retained scratch, which unlike a sync.Pool's entries
// survives collections; a compile that finds it taken makes its own.
var spare atomic.Pointer[scratch]

func (s *scratch) reset() *scratch {
	s.insts = s.insts[:0]
	return s
}

// program copies the emitted instructions out (nil when there are none).
func (s *scratch) program() []isa.Inst {
	if len(s.insts) == 0 {
		return nil
	}
	return slices.Clone(s.insts)
}

// staticScalarUnits converts an opaque control region's cycle cost into
// static code units comparable to loop-body operation counts.
func staticScalarUnits(cycles int64) int64 {
	u := cycles >> 16
	if u < 1 {
		u = 1
	}
	return u
}

func (c *compilation) temp(b int) isa.PageID {
	chunk := b % maxTempChunks
	idx := c.tempNext[chunk] % tempsPerChunk
	c.tempNext[chunk]++
	return c.tempBase + isa.PageID(chunk*tempsPerChunk+idx)
}

// operand is an expression result: either a page or an immediate.
type operand struct {
	page isa.PageID
	imm  uint64
	lit  bool
}

func (c *compilation) compileLoop(src *Source, l Loop) error {
	c.loopID++
	// Bounds check: every referenced array must cover the loop's lanes.
	blocks := (l.N + c.lanes - 1) / c.lanes
	checkLen := func(name string) error {
		if c.arrays[name].len < l.N {
			return fmt.Errorf("compiler: loop %q iterates %d lanes but array %q has %d",
				l.Name, l.N, name, c.arrays[name].len)
		}
		return nil
	}
	var work int64
	carried := false
	for _, a := range l.Body {
		if err := checkLen(a.Target); err != nil {
			return err
		}
		c.refs = c.refs[:0]
		refsIn(a.Value, &c.refs)
		for _, r := range c.refs {
			if err := checkLen(r.Name); err != nil {
				return err
			}
			carried = carried || carriedRef(l, r)
		}
		work += int64(opsIn(a.Value) + 1)
	}

	vectorized := true
	reason := ""
	switch {
	case l.ForceScalar:
		vectorized, reason = false, "marked non-vectorizable (control flow/aliasing)"
	case carried:
		vectorized, reason = false, "loop-carried dependence"
	case l.N < c.lanes:
		vectorized, reason = false, fmt.Sprintf("iteration count %d below vector width %d", l.N, c.lanes)
	}
	c.Report.Loops = append(c.Report.Loops, LoopReport{
		Name: l.Name, Vectorized: vectorized, Reason: reason, Work: work,
	})
	c.Report.TotalWork += work
	if vectorized {
		c.Report.VectorWork += work
	}

	for b := 0; b < blocks; b++ {
		for _, a := range l.Body {
			val, err := c.emitExpr(a.Value, b, vectorized, nil)
			if err != nil {
				return err
			}
			target := c.arrays[a.Target].pages[b]
			switch {
			case a.Reduce:
				page := c.materialize(val, b, vectorized)
				c.emit(isa.OpReduceAdd, target, []isa.PageID{page}, 0, false, vectorized)
			case val.lit:
				c.emit(isa.OpBroadcast, target, nil, val.imm, true, vectorized)
			case val.page != target:
				// Try to fold the copy by re-emitting the root with the
				// target as destination; for plain refs a copy is needed.
				c.emit(isa.OpCopy, target, []isa.PageID{val.page}, 0, false, vectorized)
			}
		}
	}
	return nil
}

// emitExpr lowers e for block b, returning its result operand. When dst is
// non-nil, the root operation writes *dst instead of a temporary.
func (c *compilation) emitExpr(e Expr, b int, vectorized bool, dst *isa.PageID) (operand, error) {
	switch v := e.(type) {
	case Lit:
		return operand{imm: v.Value, lit: true}, nil
	case Ref:
		page := c.arrays[v.Name].pages[b]
		if v.Offset == 0 {
			return operand{page: page}, nil
		}
		rot := ((v.Offset % c.lanes) + c.lanes) % c.lanes
		out := c.destOr(dst, b)
		c.emit(isa.OpShuffle, out, []isa.PageID{page}, uint64(rot), true, vectorized)
		return operand{page: out}, nil
	case Un:
		op, err := irOp(v.Op)
		if err != nil {
			return operand{}, err
		}
		x, err := c.emitExpr(v.X, b, vectorized, nil)
		if err != nil {
			return operand{}, err
		}
		xp := c.materialize(x, b, vectorized)
		out := c.destOr(dst, b)
		c.emit(op, out, []isa.PageID{xp}, 0, false, vectorized)
		return operand{page: out}, nil
	case Bin:
		op, err := irOp(v.Op)
		if err != nil {
			return operand{}, err
		}
		x, err := c.emitExpr(v.X, b, vectorized, nil)
		if err != nil {
			return operand{}, err
		}
		y, err := c.emitExpr(v.Y, b, vectorized, nil)
		if err != nil {
			return operand{}, err
		}
		if x.lit && y.lit {
			// Constant subexpression: materialize X and fold Y.
			x = operand{page: c.materialize(x, b, vectorized)}
		}
		if x.lit && op.Commutative() {
			x, y = y, x
		}
		out := c.destOr(dst, b)
		switch {
		case op == isa.OpShl || op == isa.OpShr:
			if !y.lit {
				return operand{}, fmt.Errorf("compiler: shift amount must be a literal")
			}
			xp := c.materialize(x, b, vectorized)
			c.emit(op, out, []isa.PageID{xp}, y.imm, true, vectorized)
		case y.lit && op.ImmReplacesSrc():
			xp := c.materialize(x, b, vectorized)
			c.emit(op, out, []isa.PageID{xp}, y.imm, true, vectorized)
		default:
			xp := c.materialize(x, b, vectorized)
			yp := c.materialize(y, b, vectorized)
			c.emit(op, out, []isa.PageID{xp, yp}, 0, false, vectorized)
		}
		return operand{page: out}, nil
	case Cond:
		m, err := c.emitExpr(v.Mask, b, vectorized, nil)
		if err != nil {
			return operand{}, err
		}
		a, err := c.emitExpr(v.A, b, vectorized, nil)
		if err != nil {
			return operand{}, err
		}
		bb, err := c.emitExpr(v.B, b, vectorized, nil)
		if err != nil {
			return operand{}, err
		}
		mp := c.materialize(m, b, vectorized)
		ap := c.materialize(a, b, vectorized)
		out := c.destOr(dst, b)
		if bb.lit {
			c.emit(isa.OpSelect, out, []isa.PageID{mp, ap}, bb.imm, true, vectorized)
		} else {
			bp := c.materialize(bb, b, vectorized)
			c.emit(isa.OpSelect, out, []isa.PageID{mp, ap, bp}, 0, false, vectorized)
		}
		return operand{page: out}, nil
	default:
		return operand{}, fmt.Errorf("compiler: unknown expression %T", e)
	}
}

func (c *compilation) destOr(dst *isa.PageID, b int) isa.PageID {
	if dst != nil {
		return *dst
	}
	return c.temp(b)
}

// materialize turns an operand into a page, broadcasting literals.
func (c *compilation) materialize(o operand, b int, vectorized bool) isa.PageID {
	if !o.lit {
		return o.page
	}
	t := c.temp(b)
	c.emit(isa.OpBroadcast, t, nil, o.imm, true, vectorized)
	return t
}

// emit appends one vector instruction with compiler metadata (§4.3.1:
// instruction type, operand pointers, element sizes, vector length).
func (c *compilation) emit(op isa.Op, dst isa.PageID, srcs []isa.PageID, imm uint64, useImm bool, vectorized bool) {
	in := isa.Inst{
		ID:     int32(len(c.insts)),
		Op:     op,
		Dst:    dst,
		Imm:    imm,
		UseImm: useImm,
		Elem:   uint8(c.elem),
		Lanes:  int32(c.lanes),
		Meta: isa.Meta{
			Class:            op.Class(),
			Unvectorized:     !vectorized,
			LoopID:           c.loopID,
			OperandFootprint: int32((len(srcs) + 1) * c.pageSize),
		},
	}
	// Validate refuses the program if srcs held more than Src does.
	in.NSrc = uint8(copy(in.Src[:], srcs))
	c.insts = append(c.insts, in)
}

// emitScalar appends an opaque control region.
func (c *compilation) emitScalar(cycles int64) {
	c.insts = append(c.insts, isa.Inst{
		ID:           int32(len(c.insts)),
		Op:           isa.OpScalar,
		Dst:          isa.NoPage,
		ScalarCycles: cycles,
		Meta:         isa.Meta{Class: isa.ClassControl, LoopID: c.loopID},
	})
}
