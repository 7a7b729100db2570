package offload

import (
	"testing"
	"testing/quick"

	"conduit/internal/isa"
	"conduit/internal/sim"
)

// feat builds a Features snapshot for an add with the given per-resource
// numbers (order: ISP, PuD, IFP).
func feat(op isa.Op, comp, move, queue [3]sim.Time, dep sim.Time) *Features {
	f := &Features{
		Inst:     &isa.Inst{Op: op, Elem: 1, Lanes: 64},
		DepDelay: dep,
	}
	for _, r := range isa.AllResources {
		f.Supported[r] = isa.Supports(r, op)
		f.CompLatency[r] = comp[r]
		f.MoveLatency[r] = move[r]
		f.QueueDelay[r] = queue[r]
	}
	return f
}

// fixedUtil is a LoadSource with one utilization per resource (order: ISP,
// PuD, IFP) that counts how often each is read.
type fixedUtil struct {
	util  [3]float64
	reads [3]int
}

func (u *fixedUtil) Utilization(r isa.Resource) float64 {
	u.reads[r]++
	return u.util[r]
}

func TestTotalLatencyEquation1(t *testing.T) {
	f := feat(isa.OpAdd, [3]sim.Time{100, 200, 300}, [3]sim.Time{10, 20, 30},
		[3]sim.Time{5, 500, 5}, 50)
	// ISP: comp 100 + move 10 + max(dep 50, queue 5) = 160.
	if got := f.TotalLatency(isa.ResISP); got != 160 {
		t.Errorf("ISP total = %v, want 160", got)
	}
	// PuD: 200 + 20 + max(50, 500) = 720 (queueing dominates dependence).
	if got := f.TotalLatency(isa.ResPuD); got != 720 {
		t.Errorf("PuD total = %v, want 720", got)
	}
}

func TestConduitPicksArgmin(t *testing.T) {
	f := feat(isa.OpAdd, [3]sim.Time{100, 200, 300}, [3]sim.Time{10, 20, 30},
		[3]sim.Time{5, 500, 5}, 50)
	if got := (Conduit{}).Select(f); got != isa.ResISP {
		t.Errorf("Conduit chose %v, want ISP", got)
	}
	// Load ISP's queue heavily: Conduit must move away.
	f.QueueDelay[isa.ResISP] = 10 * sim.Millisecond
	if got := (Conduit{}).Select(f); got != isa.ResIFP {
		t.Errorf("Conduit chose %v under ISP congestion, want IFP", got)
	}
}

func TestConduitRespectsSupportMatrix(t *testing.T) {
	// Division: only ISP supports it, whatever the costs say.
	f := feat(isa.OpDiv, [3]sim.Time{1000, 1, 1}, [3]sim.Time{0, 0, 0},
		[3]sim.Time{0, 0, 0}, 0)
	if got := (Conduit{}).Select(f); got != isa.ResISP {
		t.Errorf("Conduit chose %v for div, want ISP", got)
	}
}

func TestDMOffloadingIgnoresQueueing(t *testing.T) {
	// IFP has zero movement but a massive queue; DM-Offloading still picks
	// it — exactly the failure mode §3.2 describes.
	f := feat(isa.OpAdd, [3]sim.Time{100, 100, 100}, [3]sim.Time{500, 500, 0},
		[3]sim.Time{0, 0, 100 * sim.Millisecond}, 0)
	if got := (DMOffloading{}).Select(f); got != isa.ResIFP {
		t.Errorf("DM chose %v, want IFP (movement-blind to queues)", got)
	}
	if got := (Conduit{}).Select(f); got == isa.ResIFP {
		t.Error("Conduit should avoid the congested IFP queue")
	}
}

func TestDMOffloadingTieBreaksOnCompute(t *testing.T) {
	f := feat(isa.OpAdd, [3]sim.Time{50, 10, 100}, [3]sim.Time{7, 7, 7},
		[3]sim.Time{0, 0, 0}, 0)
	if got := (DMOffloading{}).Select(f); got != isa.ResPuD {
		t.Errorf("DM tie-break chose %v, want PuD (cheapest compute)", got)
	}
}

func TestBWOffloadingPicksLeastUtilized(t *testing.T) {
	f := feat(isa.OpAdd, [3]sim.Time{1, 1, 1}, [3]sim.Time{1000, 1000, 1000},
		[3]sim.Time{0, 0, 0}, 0)
	f.Load = &fixedUtil{util: [3]float64{0.9, 0.2, 0.5}}
	if got := (BWOffloading{}).Select(f); got != isa.ResPuD {
		t.Errorf("BW chose %v, want PuD (lowest utilization)", got)
	}
	// Unsupported resources are skipped even if least utilized.
	f2 := feat(isa.OpDiv, [3]sim.Time{1, 1, 1}, [3]sim.Time{0, 0, 0},
		[3]sim.Time{0, 0, 0}, 0)
	f2.Load = &fixedUtil{util: [3]float64{0.9, 0.0, 0.0}}
	if got := (BWOffloading{}).Select(f2); got != isa.ResISP {
		t.Errorf("BW chose %v for div, want ISP", got)
	}
}

// TestUtilizationReadOnlyByBWOffloading: utilization is computed when a
// policy asks for it. No policy but BW-Offloading asks, and BW-Offloading
// asks once per resource that can run the instruction.
func TestUtilizationReadOnlyByBWOffloading(t *testing.T) {
	ops := []isa.Op{isa.OpAdd, isa.OpXor, isa.OpMul, isa.OpDiv, isa.OpSub, isa.OpShuffle}
	silent := []Policy{
		Conduit{}, DMOffloading{},
		Conduit{DropQueue: true}, Conduit{DropDep: true}, Conduit{DropMove: true},
		Conduit{DropQueue: true, DropDep: true, DropMove: true},
		ISPOnly{}, PuDSSD{}, FlashCosmos{}, AresFlash{}, &NaiveCombo{},
	}
	for _, op := range ops {
		f := feat(op, [3]sim.Time{300, 100, 200}, [3]sim.Time{10, 20, 30}, [3]sim.Time{5, 50, 500}, 40)
		src := &fixedUtil{util: [3]float64{0.9, 0.2, 0.5}}
		f.Load = src
		for _, p := range silent {
			p.Select(f)
			if src.reads != [3]int{} {
				t.Fatalf("%s read utilization for %v: %v reads", p.Name(), op, src.reads)
			}
		}
		(BWOffloading{}).Select(f)
		for _, r := range isa.AllResources {
			want := 0
			if f.Supported[r] {
				want = 1
			}
			if src.reads[r] != want {
				t.Errorf("BW-Offloading read %v's utilization %d times for %v (supported=%v), want %d",
					r, src.reads[r], op, f.Supported[r], want)
			}
		}
	}
}

// TestAllTermsDroppedPicksLowestCompute: with every delay and movement
// term dropped, Conduit prices computation latency alone.
func TestAllTermsDroppedPicksLowestCompute(t *testing.T) {
	f := feat(isa.OpAdd, [3]sim.Time{300, 100, 200},
		[3]sim.Time{0, 10 * sim.Millisecond, 0},
		[3]sim.Time{0, 10 * sim.Millisecond, 0}, 10*sim.Millisecond)
	f.ResultMove[isa.ResPuD] = 10 * sim.Millisecond
	p := Conduit{DropQueue: true, DropDep: true, DropMove: true}
	if got := p.Select(f); got != isa.ResPuD {
		t.Errorf("%s chose %v, want PuD regardless of movement/queues", p.Name(), got)
	}
}

func TestStaticPolicies(t *testing.T) {
	add := feat(isa.OpAdd, [3]sim.Time{1, 1, 1}, [3]sim.Time{0, 0, 0}, [3]sim.Time{0, 0, 0}, 0)
	xor := feat(isa.OpXor, [3]sim.Time{1, 1, 1}, [3]sim.Time{0, 0, 0}, [3]sim.Time{0, 0, 0}, 0)
	mul := feat(isa.OpMul, [3]sim.Time{1, 1, 1}, [3]sim.Time{0, 0, 0}, [3]sim.Time{0, 0, 0}, 0)
	div := feat(isa.OpDiv, [3]sim.Time{1, 1, 1}, [3]sim.Time{0, 0, 0}, [3]sim.Time{0, 0, 0}, 0)
	sub := feat(isa.OpSub, [3]sim.Time{1, 1, 1}, [3]sim.Time{0, 0, 0}, [3]sim.Time{0, 0, 0}, 0)

	if (ISPOnly{}).Select(xor) != isa.ResISP {
		t.Error("ISPOnly must always pick ISP")
	}
	if (PuDSSD{}).Select(add) != isa.ResPuD || (PuDSSD{}).Select(div) != isa.ResISP {
		t.Error("PuD-SSD picks DRAM when supported, else ISP")
	}
	// Flash-Cosmos: bitwise to flash, arithmetic to cores.
	if (FlashCosmos{}).Select(xor) != isa.ResIFP {
		t.Error("Flash-Cosmos must put XOR in flash")
	}
	if (FlashCosmos{}).Select(add) != isa.ResISP || (FlashCosmos{}).Select(mul) != isa.ResISP {
		t.Error("Flash-Cosmos must put arithmetic on cores")
	}
	// Ares-Flash adds in-flash arithmetic.
	if (AresFlash{}).Select(add) != isa.ResIFP || (AresFlash{}).Select(mul) != isa.ResIFP {
		t.Error("Ares-Flash must put add/mul in flash")
	}
	if (AresFlash{}).Select(sub) != isa.ResISP {
		t.Error("Ares-Flash must fall back to ISP for subtraction")
	}
}

func TestNaiveComboAlternates(t *testing.T) {
	n := &NaiveCombo{}
	xor := feat(isa.OpXor, [3]sim.Time{1, 1, 1}, [3]sim.Time{0, 0, 0}, [3]sim.Time{0, 0, 0}, 0)
	first := n.Select(xor)
	second := n.Select(xor)
	if first == second {
		t.Error("naive combo must alternate IFP and ISP")
	}
	div := feat(isa.OpDiv, [3]sim.Time{1, 1, 1}, [3]sim.Time{0, 0, 0}, [3]sim.Time{0, 0, 0}, 0)
	if n.Select(div) != isa.ResISP {
		t.Error("naive combo must not send unsupported ops to flash")
	}
}

func TestAblatedDropsTerms(t *testing.T) {
	// Queue congestion on IFP: full Conduit avoids it, queue-ablated walks
	// right into it (it looks free otherwise).
	f := feat(isa.OpAdd, [3]sim.Time{100, 100, 10}, [3]sim.Time{50, 50, 0},
		[3]sim.Time{0, 0, sim.Second}, 0)
	if got := (Conduit{}).Select(f); got == isa.ResIFP {
		t.Error("full Conduit should dodge the congested queue")
	}
	if got := (Conduit{DropQueue: true}).Select(f); got != isa.ResIFP {
		t.Errorf("queue-ablated chose %v, want IFP", got)
	}
	// Movement-ablated ignores a huge movement cost.
	f2 := feat(isa.OpAdd, [3]sim.Time{100, 10, 100}, [3]sim.Time{0, sim.Second, 0},
		[3]sim.Time{0, 0, 0}, 0)
	if got := (Conduit{DropMove: true}).Select(f2); got != isa.ResPuD {
		t.Errorf("move-ablated chose %v, want PuD", got)
	}
	if got := (Conduit{}).Select(f2); got == isa.ResPuD {
		t.Error("full Conduit should price the movement")
	}
	// Dependence-ablated ignores a dependence delay that hides PuD's
	// queue: with it, ISP and PuD both wait 1 ms and PuD computes faster;
	// without it, PuD's 500 µs queue loses to ISP's empty one.
	f3 := feat(isa.OpAdd, [3]sim.Time{100, 10, 100}, [3]sim.Time{0, 0, sim.Second},
		[3]sim.Time{0, 500 * sim.Microsecond, 0}, sim.Millisecond)
	if got := (Conduit{}).Select(f3); got != isa.ResPuD {
		t.Errorf("full Conduit chose %v, want PuD", got)
	}
	if got := (Conduit{DropDep: true}).Select(f3); got != isa.ResISP {
		t.Errorf("dep-ablated chose %v, want ISP", got)
	}
	for p, want := range map[Conduit]string{
		{}:                                "Conduit",
		{DropQueue: true}:                 "Conduit-noqueue",
		{DropDep: true}:                   "Conduit-nodep",
		{DropMove: true}:                  "Conduit-nomove",
		{DropQueue: true, DropMove: true}: "Conduit-noqueue-nomove",
	} {
		if name := p.Name(); name != want {
			t.Errorf("%+v name = %q, want %q", p, name, want)
		}
	}
}

// TestConduitSelectAllocatesNothing: pricing, ablated or not, allocates
// nothing per instruction.
func TestConduitSelectAllocatesNothing(t *testing.T) {
	f := feat(isa.OpAdd, [3]sim.Time{100, 200, 300}, [3]sim.Time{10, 20, 30},
		[3]sim.Time{5, 500, 5}, 50)
	for _, p := range []Conduit{{}, {DropQueue: true}, {DropDep: true, DropMove: true}} {
		if n := testing.AllocsPerRun(100, func() { p.Select(f) }); n != 0 {
			t.Errorf("%s allocates %v times per Select", p.Name(), n)
		}
	}
}

// TestAblationMatchesTermwiseCost: an ablated Conduit picks what an
// argmin over Eqn. 1 with the dropped terms left out of the sum picks,
// resource order breaking ties.
func TestAblationMatchesTermwiseCost(t *testing.T) {
	ops := []isa.Op{isa.OpAdd, isa.OpMul, isa.OpXor, isa.OpDiv, isa.OpSub, isa.OpLT, isa.OpShuffle}
	check := func(seed uint64, opSel, drop uint8) bool {
		r := sim.NewRNG(seed)
		var comp, move, queue [3]sim.Time
		for i := 0; i < 3; i++ {
			// A narrow range, so ties are common.
			comp[i] = sim.Time(r.Intn(8))
			move[i] = sim.Time(r.Intn(8))
			queue[i] = sim.Time(r.Intn(8))
		}
		f := feat(ops[int(opSel)%len(ops)], comp, move, queue, sim.Time(r.Intn(8)))
		for i := range f.ResultMove {
			f.ResultMove[i] = sim.Time(r.Intn(8))
		}
		p := Conduit{DropQueue: drop&1 != 0, DropDep: drop&2 != 0, DropMove: drop&4 != 0}
		want, best := isa.Resource(255), sim.Time(0)
		for _, res := range isa.AllResources {
			if !f.Supported[res] {
				continue
			}
			var wait sim.Time
			if !p.DropDep {
				wait = f.DepDelay
			}
			if !p.DropQueue && f.QueueDelay[res] > wait {
				wait = f.QueueDelay[res]
			}
			cost := f.CompLatency[res] + wait
			if !p.DropMove {
				cost += f.MoveLatency[res] + f.ResultMove[res]
			}
			if want == 255 || cost < best {
				want, best = res, cost
			}
		}
		return p.Select(f) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Conduit's choice always achieves the minimum Eqn-1 cost among
// supported resources, and never selects an unsupported resource.
func TestConduitArgminProperty(t *testing.T) {
	ops := []isa.Op{isa.OpAdd, isa.OpMul, isa.OpXor, isa.OpDiv, isa.OpSub, isa.OpLT, isa.OpShuffle}
	f := func(seed uint64, opSel uint8) bool {
		r := sim.NewRNG(seed)
		op := ops[int(opSel)%len(ops)]
		var comp, move, queue [3]sim.Time
		for i := 0; i < 3; i++ {
			comp[i] = sim.Time(r.Intn(1000000))
			move[i] = sim.Time(r.Intn(1000000))
			queue[i] = sim.Time(r.Intn(1000000))
		}
		ft := feat(op, comp, move, queue, sim.Time(r.Intn(1000000)))
		choice := (Conduit{}).Select(ft)
		if !ft.Supported[choice] {
			return false
		}
		for _, res := range isa.AllResources {
			if ft.Supported[res] && ft.TotalLatency(res) < ft.TotalLatency(choice) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"Conduit":       Conduit{},
		"DM-Offloading": DMOffloading{},
		"BW-Offloading": BWOffloading{},
		"ISP":           ISPOnly{},
		"PuD-SSD":       PuDSSD{},
		"Flash-Cosmos":  FlashCosmos{},
		"Ares-Flash":    AresFlash{},
		"IFP+ISP":       &NaiveCombo{},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("policy name %q, want %q", p.Name(), want)
		}
	}
}
