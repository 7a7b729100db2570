package cluster

import (
	"reflect"
	"testing"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/isa"
)

// testSource builds a small mixed workload: two partitionable data
// arrays, one broadcast table, a full-span vector loop, a partial-span
// scalar loop, and an opaque control region.
func testSource(lanes int) *compiler.Source {
	data := make([]byte, lanes)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	table := make([]byte, lanes)
	for i := range table {
		table[i] = byte(i * 3)
	}
	return &compiler.Source{
		Name: "cluster-test",
		Arrays: []*compiler.Array{
			{Name: "in", Elem: 1, Len: lanes, Input: true, Fill: compiler.Bytes(data)},
			{Name: "out", Elem: 1, Len: lanes},
			{Name: "table", Elem: 1, Len: lanes, Input: true, Fill: compiler.Bytes(table)},
		},
		Stmts: []compiler.Stmt{
			compiler.Loop{Name: "map", N: lanes, Body: []compiler.Assign{
				{Target: "out", Value: compiler.Bin{Op: compiler.OpXor,
					X: compiler.Ref{Name: "in"}, Y: compiler.Ref{Name: "table"}}},
			}},
			compiler.Loop{Name: "head", N: lanes / 4, ForceScalar: true, Body: []compiler.Assign{
				{Target: "out", Value: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Ref{Name: "out"}, Y: compiler.Lit{Value: 1}}},
			}},
			compiler.ScalarWork{Name: "control", Cycles: 1 << 20},
		},
	}
}

func plan(t *testing.T, src *compiler.Source, pageSize, shards int, part func(string) bool) *Plan {
	t.Helper()
	p, err := PlanShards(src, pageSize, shards, part)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func isTable(name string) bool { return name != "table" }

func TestPlanCutsBlockAligned(t *testing.T) {
	const pageSize = 256 // 256 lanes per block at Elem 1
	src := testSource(5 * pageSize)
	p := plan(t, src, pageSize, 3, isTable)
	if p.Blocks != 5 || p.Lanes != 5*pageSize {
		t.Fatalf("blocks=%d lanes=%d, want 5, %d", p.Blocks, p.Lanes, 5*pageSize)
	}
	if got, want := p.Partitioned, []string{"in", "out"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("partitioned = %v, want %v", got, want)
	}
	if got, want := p.Broadcast, []string{"table"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("broadcast = %v, want %v", got, want)
	}
	if p.Cuts[0] != 0 || p.Cuts[len(p.Cuts)-1] != p.Lanes {
		t.Fatalf("cuts do not span the lane space: %v", p.Cuts)
	}
	total := 0
	for i := 0; i < p.Shards; i++ {
		s, e := p.ShardLanes(i)
		if s >= e {
			t.Fatalf("shard %d empty: [%d, %d)", i, s, e)
		}
		if s%p.PageLanes != 0 {
			t.Fatalf("shard %d start %d not block-aligned", i, s)
		}
		total += e - s
	}
	if total != p.Lanes {
		t.Fatalf("shards cover %d lanes, want %d", total, p.Lanes)
	}
}

func TestPlanErrors(t *testing.T) {
	const pageSize = 256
	src := testSource(2 * pageSize)
	if _, err := PlanShards(src, pageSize, 0, nil); err == nil {
		t.Error("shards=0 accepted")
	}
	if _, err := PlanShards(src, pageSize, 3, nil); err == nil {
		t.Error("more shards than blocks accepted")
	}
	if _, err := PlanShards(src, pageSize, 2, func(string) bool { return false }); err == nil {
		t.Error("all-broadcast plan accepted")
	}
	// Partitionable arrays of different lengths cannot share a row-block
	// lane space.
	uneven := testSource(2 * pageSize)
	uneven.Arrays[2].Len = pageSize
	if _, err := PlanShards(uneven, pageSize, 2, nil); err == nil {
		t.Error("length-mismatched partition accepted")
	}
}

// TestShardSingleIsOriginal: a 1-shard plan returns the identical Source
// value — not a copy — so 1-shard cluster compilation is definitionally
// the single-device compilation.
func TestShardSingleIsOriginal(t *testing.T) {
	const pageSize = 256
	src := testSource(4 * pageSize)
	p := plan(t, src, pageSize, 1, isTable)
	got, err := p.Shard(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != src {
		t.Fatal("1-shard Shard did not return the original Source")
	}
}

// image is an array's whole initial image.
func image(a *compiler.Array) []byte {
	b := make([]byte, a.Len*a.Elem)
	a.Fill(0, b)
	return b
}

func TestShardSlicing(t *testing.T) {
	const pageSize = 256
	lanes := 4 * pageSize
	src := testSource(lanes)
	p := plan(t, src, pageSize, 2, isTable)
	for i := 0; i < 2; i++ {
		s, err := p.Shard(src, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("shard %d invalid: %v", i, err)
		}
		start, end := p.ShardLanes(i)
		in := s.Arrays[0]
		if in.Len != end-start {
			t.Fatalf("shard %d 'in' len = %d, want %d", i, in.Len, end-start)
		}
		if !reflect.DeepEqual(image(in), image(src.Arrays[0])[start:end]) {
			t.Fatalf("shard %d 'in' data is not the [%d, %d) slice", i, start, end)
		}
		// Broadcast arrays replicate whole.
		if table := s.Arrays[2]; table.Len != lanes || !reflect.DeepEqual(image(table), image(src.Arrays[2])) {
			t.Fatalf("shard %d broadcast table was sliced", i)
		}
	}

	// The full-span loop clips to each shard's lane count; the
	// quarter-span loop lives entirely in shard 0 and vanishes from
	// shard 1 (lanes/4 = one block < shard 0's two blocks).
	s0, _ := p.Shard(src, 0)
	s1, _ := p.Shard(src, 1)
	if l := s0.Stmts[0].(compiler.Loop); l.N != pageSize*2 {
		t.Fatalf("shard 0 map loop N = %d, want %d", l.N, pageSize*2)
	}
	if l := s0.Stmts[1].(compiler.Loop); l.N != lanes/4 {
		t.Fatalf("shard 0 head loop N = %d, want %d", l.N, lanes/4)
	}
	var s1Loops []string
	for _, st := range s1.Stmts {
		if l, ok := st.(compiler.Loop); ok {
			s1Loops = append(s1Loops, l.Name)
		}
	}
	if !reflect.DeepEqual(s1Loops, []string{"map"}) {
		t.Fatalf("shard 1 loops = %v, want [map] only", s1Loops)
	}
}

// TestShardScalarWorkTelescopes: apportioned scalar cycles sum exactly to
// the original budget across shards.
func TestShardScalarWorkTelescopes(t *testing.T) {
	const pageSize = 256
	src := testSource(5 * pageSize) // uneven: 5 blocks across 3 shards
	p := plan(t, src, pageSize, 3, isTable)
	var sum int64
	for i := 0; i < 3; i++ {
		s, err := p.Shard(src, i)
		if err != nil {
			t.Fatal(err)
		}
		sum += s.Stmts[len(s.Stmts)-1].(compiler.ScalarWork).Cycles
	}
	want := src.Stmts[len(src.Stmts)-1].(compiler.ScalarWork).Cycles
	if sum != want {
		t.Fatalf("scalar cycles sum to %d across shards, want %d", sum, want)
	}
}

// TestShardsCompile: every shard of every evaluated partition compiles,
// and shard programs are smaller than the single-device program.
func TestShardsCompile(t *testing.T) {
	const pageSize = 256
	src := testSource(6 * pageSize)
	full, err := compiler.Compile(src, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	p := plan(t, src, pageSize, 3, isTable)
	for i := 0; i < 3; i++ {
		s, err := p.Shard(src, i)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.Compile(s, pageSize)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(c.Prog.Insts) >= len(full.Prog.Insts) {
			t.Fatalf("shard %d program has %d insts, not smaller than full %d",
				i, len(c.Prog.Insts), len(full.Prog.Insts))
		}
	}
}

func TestReducePagesAndModel(t *testing.T) {
	const pageSize = 256
	lanes := 2 * pageSize
	src := &compiler.Source{
		Name: "reduce-test",
		Arrays: []*compiler.Array{
			{Name: "v", Elem: 1, Len: lanes, Input: true},
			{Name: "acc", Elem: 1, Len: lanes},
		},
		Stmts: []compiler.Stmt{
			compiler.Loop{Name: "sum", N: lanes, Body: []compiler.Assign{
				{Target: "acc", Reduce: true, Value: compiler.Ref{Name: "v"}},
			}},
		},
	}
	c, err := compiler.Compile(src, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := ReducePages(c.Prog); got != 2 {
		t.Fatalf("ReducePages = %d, want 2 (one per block)", got)
	}
	plain, err := compiler.Compile(testSource(2*pageSize), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := ReducePages(plain.Prog); got != 0 {
		t.Fatalf("non-reducing program reports %d reduce pages", got)
	}

	cfg := config.TestScale()
	if r := ReduceModel(&cfg, 1, 4); r != (Reduction{}) {
		t.Fatalf("1-shard reduction priced: %+v", r)
	}
	if r := ReduceModel(&cfg, 4, 0); r != (Reduction{}) {
		t.Fatalf("no-reduce reduction priced: %+v", r)
	}
	// totalPages is the across-shard sum: 4 shards contributing 2 pages
	// total gather exactly 2 pages, regardless of how unevenly the
	// shards contributed them.
	r := ReduceModel(&cfg, 4, 2)
	if r.Bytes != int64(2*cfg.SSD.PageSize) {
		t.Fatalf("reduction bytes = %d, want %d", r.Bytes, 2*cfg.SSD.PageSize)
	}
	if r.Time <= 0 || r.ComputeJ <= 0 || r.MovementJ <= 0 {
		t.Fatalf("reduction not priced: %+v", r)
	}
	// Deterministic: same inputs, bit-identical outputs.
	if r2 := ReduceModel(&cfg, 4, 2); r2 != r {
		t.Fatalf("reduction model not deterministic: %+v vs %+v", r, r2)
	}
	_ = isa.OpReduceAdd // the op the model exists for
}
