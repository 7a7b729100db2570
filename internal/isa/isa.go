package isa

import "fmt"

// Op is a vector IR operation.
type Op uint8

// Vector IR operations. The set covers the operations observed in the six
// evaluated workloads: bulk bitwise, integer arithmetic, predication and
// relational, data movement, reduction, shuffle, and opaque scalar
// (non-vectorizable control) work.
const (
	OpAnd Op = iota
	OpOr
	OpXor
	OpNot
	OpNand
	OpNor
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpShl
	OpShr
	OpLT
	OpGT
	OpEQ
	OpMin
	OpMax
	OpSelect
	OpCopy
	OpBroadcast
	OpReduceAdd
	OpShuffle
	OpScalar // opaque non-vectorized control/bookkeeping region; the last operation
)

// numOps is the size of the operation set. OpScalar stays last: the row
// of an operation declared after it would fall outside the operation
// table, which does not compile.
const numOps = OpScalar + 1

// Class groups operations the way the paper's cost function consumes them
// (Table 1, "operation type").
type Class uint8

// Operation classes.
const (
	ClassBitwise Class = iota
	ClassArithmetic
	ClassPredication
	ClassMove
	ClassReduction
	ClassControl
)

// String names the class.
func (c Class) String() string {
	return [...]string{"bitwise", "arithmetic", "predication", "move", "reduction", "control"}[c]
}

// LatencyBand is the workload-characterization band of Table 3.
type LatencyBand uint8

// Latency bands (Table 3: low = bitwise/logical, medium = add/predication,
// high = multiplication and other long operations).
const (
	LatencyLow LatencyBand = iota
	LatencyMedium
	LatencyHigh
)

// String names the band.
func (b LatencyBand) String() string {
	return [...]string{"low", "medium", "high"}[b]
}

// ScalarCyclesPerLane is the controller-core cost of one un-vectorized
// lane operation (scalar load/op/store); shared by the compiler's work
// estimator and the ISP execution model.
const ScalarCyclesPerLane = 4

// PageID is a logical page number in the SSD's logical address space. Every
// vector operand occupies exactly one logical page (the compile-time pass
// aligns vectors to the flash page size, §4.3.1).
type PageID int32

// NoPage marks an absent operand (e.g. the destination of scalar work).
const NoPage PageID = -1

// Meta is the lightweight metadata the compiler embeds with each vector
// operation to keep runtime offloading decisions cheap (§4.3.1).
type Meta struct {
	Class        Class // operation type feature of the cost function
	Unvectorized bool  // true for strip-mined remainders and loops the
	// vectorizer rejected: they execute lane-serially on the controller
	// cores (ISP), matching §7's auto-vectorization limits
	LoopID           int32 // source loop, for reporting
	OperandFootprint int32 // total operand footprint in bytes
}

// MaxSrcs is the largest number of vector sources an instruction carries
// (OpSelect's mask, a and b): the length of Inst's inline source array.
const MaxSrcs = 3

// Inst is one vector IR instruction, held several times over (compile
// scratch, program, decoded image): its fields are as narrow as
// Validate's bounds allow and ordered widest first, 56 bytes with no
// pointer, so no copy of an instruction stream is scanned by the
// collector. Its sources are inline: Src[:NSrc], read through Srcs.
type Inst struct {
	Imm uint64 // immediate operand (shift amount, broadcast value, ...)

	// ScalarCycles is the controller-core cycle cost of an OpScalar
	// region (control-intensive code that was not vectorized).
	ScalarCycles int64

	ID     int32           // position in the program
	Dst    PageID          // destination logical page (NoPage for scalar work)
	Lanes  int32           // vector lanes; Lanes*Elem = vector footprint in bytes
	Src    [MaxSrcs]PageID // source logical pages, NSrc of them
	Meta   Meta
	Op     Op    // operation
	Elem   uint8 // element size in bytes (1, 2 or 4)
	UseImm bool  // when set, the last source lane input is the immediate
	NSrc   uint8 // number of sources, at most MaxSrcs
}

// Srcs returns the instruction's sources, a window of Src capped at NSrc:
// appending to it copies rather than writing into the instruction.
func (in *Inst) Srcs() []PageID { return in.Src[:in.NSrc:in.NSrc] }

// VectorBytes reports the instruction's vector footprint.
func (in *Inst) VectorBytes() int { return int(in.Lanes) * int(in.Elem) }

// Program is a compiled instruction stream plus its data layout.
type Program struct {
	Name  string
	Insts []Inst
	// Pages is the number of logical pages the program addresses; valid
	// PageIDs are [0, Pages). A compiled program's count includes the
	// compiler's reserved temporary pool, most of which no instruction
	// names (Span is what the instructions reach). The drive's capacity
	// check, the firmware image and the host page cache's capacity
	// (internal/host) derive from Pages, so it is part of the model.
	Pages int
	// InputPages lists pages holding application input data that reside
	// on flash when execution starts (§4.4: all application data resides
	// in the SSD at the start).
	InputPages []PageID
	// OutputPages lists pages whose final values the host may read back;
	// pages outside this set are compiler temporaries whose values die at
	// their last reference, which the runtime exploits to skip useless
	// write-backs.
	OutputPages []PageID
}

// Validate checks structural well-formedness: operand counts match the
// operation arity, every page ID (operand, input, output) is in range,
// and element/lane geometry is sane.
func (p *Program) Validate() error {
	if p.Pages < 0 {
		return fmt.Errorf("isa: negative page count %d", p.Pages)
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if int(in.ID) != i {
			return fmt.Errorf("isa: inst %d has ID %d; IDs must be positional", i, in.ID)
		}
		if in.Op >= numOps {
			return fmt.Errorf("isa: inst %d has unknown op %d", i, uint8(in.Op))
		}
		if in.Op == OpScalar {
			if in.ScalarCycles <= 0 {
				return fmt.Errorf("isa: scalar inst %d needs positive cycle cost", i)
			}
		} else {
			if in.Elem != 1 && in.Elem != 2 && in.Elem != 4 {
				return fmt.Errorf("isa: inst %d has element size %d", i, in.Elem)
			}
			if in.Lanes <= 0 {
				return fmt.Errorf("isa: inst %d has %d lanes", i, in.Lanes)
			}
			if in.Dst == NoPage && in.Op != OpScalar {
				return fmt.Errorf("isa: inst %d (%v) lacks a destination", i, in.Op)
			}
		}
		if want := in.Op.Sources(in.UseImm); in.NSrc > MaxSrcs || in.Op != OpScalar && int(in.NSrc) != want {
			return fmt.Errorf("isa: inst %d (%v) has %d sources, want %d",
				i, in.Op, in.NSrc, want)
		}
		for _, s := range in.Srcs() {
			if !p.inRange(s) {
				return fmt.Errorf("isa: inst %d source page %d out of range [0,%d)", i, s, p.Pages)
			}
		}
		if in.Dst != NoPage && !p.inRange(in.Dst) {
			return fmt.Errorf("isa: inst %d destination page %d out of range [0,%d)", i, in.Dst, p.Pages)
		}
	}
	for _, pages := range [...][]PageID{p.InputPages, p.OutputPages} {
		for _, pg := range pages {
			if !p.inRange(pg) {
				return fmt.Errorf("isa: input/output page %d out of range [0,%d)", pg, p.Pages)
			}
		}
	}
	return nil
}

func (p *Program) inRange(pg PageID) bool { return pg >= 0 && int(pg) < p.Pages }

// Span is one more than the highest page any instruction, input or output
// names, 0 when none does: pages at or past it are addressed but never
// touched. Every page-indexed table of a run is sized by it, not by
// Pages. Of a valid program it is at most Pages.
func (p *Program) Span() int {
	hi := NoPage
	for i := range p.Insts {
		in := &p.Insts[i]
		hi = max(hi, in.Dst)
		for _, s := range in.Srcs() {
			hi = max(hi, s)
		}
	}
	for _, pages := range [...][]PageID{p.InputPages, p.OutputPages} {
		for _, pg := range pages {
			hi = max(hi, pg)
		}
	}
	return int(hi) + 1
}
