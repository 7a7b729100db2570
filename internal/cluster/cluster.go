package cluster

import (
	"errors"
	"fmt"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/sim"
)

// ErrTooManyShards reports a plan that asks for more shards than the
// workload has vector blocks; shard-count sweeps use it (via errors.Is)
// to stop scaling a workload out instead of failing the whole sweep.
var ErrTooManyShards = errors.New("shard count exceeds workload vector blocks")

// Plan is a row-block partition of one workload across N shards. Cuts are
// lane indices into the shared lane space of the partitionable arrays:
// shard i owns lanes [Cuts[i], Cuts[i+1]). Every interior cut is aligned
// to a vector block (PageLanes), so a shard's pages hold exactly the
// bytes the same pages hold on a single device — the compiler lowers Ref
// offsets to in-page rotations, never cross-page reads, which is what
// makes block-aligned slicing exact rather than approximate.
type Plan struct {
	Shards    int
	PageLanes int // lanes per vector block (PageSize / Elem)
	Lanes     int // shared length of the partitionable arrays
	Blocks    int // vector blocks in the partitioned lane space
	Cuts      []int

	// Partitioned and Broadcast list the source's arrays by class, in
	// declaration order: partitioned arrays slice row-block-wise, while
	// broadcast arrays are replicated whole to every shard (shared
	// tables: key schedules, filter banks, model weights).
	Partitioned []string
	Broadcast   []string
}

// PlanShards partitions src's arrays for the given shard count under the
// partition predicate (nil partitions every array). It validates the
// source, requires every partitionable array to share one length (the
// row-block lane space), and refuses plans with more shards than vector
// blocks — a shard that owns no block would simulate an empty device.
func PlanShards(src *compiler.Source, pageSize, shards int, partition func(array string) bool) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d must be >= 1", shards)
	}
	if err := src.Validate(); err != nil {
		return nil, err
	}
	elem := src.Elem()
	if pageSize <= 0 || pageSize%elem != 0 {
		return nil, fmt.Errorf("cluster: page size %d incompatible with element size %d", pageSize, elem)
	}
	if partition == nil {
		partition = func(string) bool { return true }
	}
	p := &Plan{Shards: shards, PageLanes: pageSize / elem}
	lanes := -1
	for _, a := range src.Arrays {
		if !partition(a.Name) {
			p.Broadcast = append(p.Broadcast, a.Name)
			continue
		}
		if lanes >= 0 && a.Len != lanes {
			return nil, fmt.Errorf("cluster: partitionable arrays disagree on length (%q has %d lanes, want %d); mark the odd one broadcast",
				a.Name, a.Len, lanes)
		}
		lanes = a.Len
		p.Partitioned = append(p.Partitioned, a.Name)
	}
	if lanes < 0 {
		return nil, fmt.Errorf("cluster: workload %q has no partitionable arrays — nothing to shard", src.Name)
	}
	p.Lanes = lanes
	p.Blocks = (lanes + p.PageLanes - 1) / p.PageLanes
	if shards > p.Blocks {
		return nil, fmt.Errorf("cluster: %d shards over the %d vector blocks of %q (%d lanes) — grow the workload or reduce -shards: %w",
			shards, p.Blocks, src.Name, lanes, ErrTooManyShards)
	}
	p.Cuts = make([]int, shards+1)
	for i := 1; i < shards; i++ {
		p.Cuts[i] = (i * p.Blocks / shards) * p.PageLanes
	}
	p.Cuts[shards] = lanes
	return p, nil
}

// ShardLanes reports the lane range shard i owns: [start, end).
func (p *Plan) ShardLanes(i int) (start, end int) { return p.Cuts[i], p.Cuts[i+1] }

// Shard derives shard i's source: partitionable arrays sliced to the
// shard's row block, broadcast arrays replicated whole, loops clipped to
// the lanes the shard owns (a loop that touches no partitionable array
// replicates unchanged — it is shared work every shard performs, like a
// key schedule), and opaque scalar regions apportioned by lane share with
// telescoping cuts so the shards' cycles sum exactly to the original.
//
// A 1-shard plan returns src itself, untouched: the 1-shard cluster is
// *definitionally* the single-device workload, which anchors the 1-shard
// == Deployment.Run byte-identity guarantee.
func (p *Plan) Shard(src *compiler.Source, i int) (*compiler.Source, error) {
	if i < 0 || i >= p.Shards {
		return nil, fmt.Errorf("cluster: shard %d out of range [0, %d)", i, p.Shards)
	}
	if p.Shards == 1 {
		return src, nil
	}
	start, end := p.ShardLanes(i)
	elem := src.Elem()
	partitioned := make(map[string]bool, len(p.Partitioned))
	for _, name := range p.Partitioned {
		partitioned[name] = true
	}

	out := &compiler.Source{Name: fmt.Sprintf("%s@shard%d/%d", src.Name, i, p.Shards)}
	for _, a := range src.Arrays {
		na := *a
		if partitioned[a.Name] {
			na.Len = end - start
			if fill, base := a.Fill, start*elem; fill != nil {
				na.Fill = func(off int, dst []byte) { fill(base+off, dst) }
			}
		}
		out.Arrays = append(out.Arrays, &na)
	}

	for _, st := range src.Stmts {
		switch s := st.(type) {
		case compiler.Loop:
			if !touchesPartitioned(s, partitioned) {
				out.Stmts = append(out.Stmts, s)
				continue
			}
			// Clip the iteration space to the shard's lanes. Loops always
			// start at lane 0, so the shard-local count is the overlap of
			// [0, N) with [start, end); a loop whose lanes all live on
			// other shards disappears here entirely.
			n := min(s.N, end) - start
			if n <= 0 {
				continue
			}
			s.N = n
			out.Stmts = append(out.Stmts, s)
		case compiler.ScalarWork:
			// Telescoping apportionment: shard i gets the i'th slice of
			// the cycle budget, and Σ_i slice_i == Cycles exactly.
			s.Cycles = s.Cycles*int64(end)/int64(p.Lanes) - s.Cycles*int64(start)/int64(p.Lanes)
			out.Stmts = append(out.Stmts, s)
		default:
			return nil, fmt.Errorf("cluster: unknown statement %T", st)
		}
	}
	return out, nil
}

// touchesPartitioned reports whether any array the loop reads or writes
// is partitioned — the condition under which its iteration space shards.
func touchesPartitioned(l compiler.Loop, partitioned map[string]bool) bool {
	for _, a := range l.Body {
		if partitioned[a.Target] {
			return true
		}
		for _, r := range compiler.RefsOf(a.Value) {
			if partitioned[r.Name] {
				return true
			}
		}
	}
	return false
}

// ReducePages counts the distinct reduce-destination pages of a compiled
// shard program — the partial-result pages the host must gather and
// combine after a sharded run of a reduce-shaped kernel.
func ReducePages(prog *isa.Program) int {
	seen := make(map[isa.PageID]bool)
	for i := range prog.Insts {
		if prog.Insts[i].Op == isa.OpReduceAdd {
			seen[prog.Insts[i].Dst] = true
		}
	}
	return len(seen)
}

// Reduction is the modeled host-side aggregation step of a sharded run:
// each shard holds one partial page per reduce destination it executed,
// the host gathers them over the (shared, serializing) PCIe link and
// streams them through host memory combining lane-wise. The model prices
// that from the Table-2 constants; it is zero for 1-shard plans and for
// kernels with no reduce-shaped output, which keeps non-reducing merges
// a pure max/sum.
type Reduction struct {
	Pages     int   // partial reduce pages gathered, summed across shards
	Bytes     int64 // total bytes gathered over the host link
	Time      sim.Time
	ComputeJ  float64
	MovementJ float64
}

// ReduceModel prices the host-side reduction of totalPages partial pages
// gathered across a shards-device cluster under cfg. totalPages is the
// sum of every shard's ReducePages — not a per-shard count — so uneven
// plans (shards owning different block counts emit different numbers of
// partial pages) are priced exactly.
func ReduceModel(cfg *config.Config, shards, totalPages int) Reduction {
	if shards <= 1 || totalPages <= 0 {
		return Reduction{}
	}
	r := Reduction{
		Pages: totalPages,
		Bytes: int64(totalPages) * int64(cfg.SSD.PageSize),
	}
	gather := cfg.SSD.PCIeTransferTime(int(r.Bytes))
	combine := sim.Time(float64(r.Bytes) / cfg.Host.MemBandwidth * 1e9)
	r.Time = gather + combine
	r.MovementJ = float64(r.Bytes) * (cfg.Host.EPCIePerByte + cfg.Host.EHostPerByte)
	r.ComputeJ = cfg.Host.CPUPowerWatts * float64(combine) / 1e9
	return r
}
