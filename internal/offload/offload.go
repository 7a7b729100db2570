package offload

import (
	"cmp"
	"fmt"

	"conduit/internal/isa"
	"conduit/internal/sim"
)

// Features is the per-instruction snapshot of the six cost-function inputs
// (Table 1): operation type (on Inst.Meta / Inst.Op), operand location
// (folded into MoveLatency, as §4.3.2 describes), data dependence delay,
// per-resource queueing delay, data movement latency, and expected
// computation latency. Those are eager: the runtime fills every field
// before Select, from tables it precomputed and calendars it reads once.
//
// The bandwidth-utilization signal that BW-Offloading uses instead is
// on demand: BWUtil asks Load when a policy calls it, so a policy that
// never reads utilization never pays for computing it.
type Features struct {
	Inst *isa.Inst

	Supported   [isa.NumResources]bool
	CompLatency [isa.NumResources]sim.Time // expected computation latency
	MoveLatency [isa.NumResources]sim.Time // operand movement to reach the resource
	// ResultMove is the interconnect cost of placing the result where a
	// consumer can use it (e.g. copying an in-flash result out of the
	// plane latches). Conduit's holistic cost function prices it;
	// DM-Offloading — which only minimizes operand movement — does not,
	// which is one of the blind spots §3.2 identifies.
	ResultMove [isa.NumResources]sim.Time
	QueueDelay [isa.NumResources]sim.Time // pending work in the resource's queue
	DepDelay   sim.Time                   // time until operands are produced

	// Load answers BWUtil. It describes the same instant as the eager
	// fields and is valid only during Select.
	Load LoadSource
}

// LoadSource reports live load signals of the computation resources.
type LoadSource interface {
	// Utilization is the busy share, in [0, 1], of the data path of
	// resource r up to the current dispatch time.
	Utilization(r isa.Resource) float64
}

// BWUtil reports the utilization of r's data path, read from Load at the
// time of the call.
func (f *Features) BWUtil(r isa.Resource) float64 { return f.Load.Utilization(r) }

// TotalLatency evaluates Eqn. 1 for resource r:
//
//	total = latency_comp + latency_dm + max(delay_dd, delay_queue)
//
// The dependence and queueing delays overlap — an instruction starts when
// both its operands and its resource are ready — hence the max.
func (f *Features) TotalLatency(r isa.Resource) sim.Time {
	wait := f.DepDelay
	if f.QueueDelay[r] > wait {
		wait = f.QueueDelay[r]
	}
	return f.CompLatency[r] + f.MoveLatency[r] + f.ResultMove[r] + wait
}

// Policy selects a computation resource for each vector instruction.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Select returns the chosen resource. At least one resource always
	// supports the instruction (ISP executes the full ISA). The runtime
	// refills one Features value per instruction and f.Load reads the
	// device as it stands during the call, so Select must not keep f (or
	// f.Load) past the call.
	Select(f *Features) isa.Resource
}

// supportedFallback returns the first supported resource, preferring ISP
// (which supports everything by construction).
func supportedFallback(f *Features) isa.Resource {
	if f.Supported[isa.ResISP] {
		return isa.ResISP
	}
	for _, r := range isa.AllResources {
		if f.Supported[r] {
			return r
		}
	}
	panic(fmt.Sprintf("offload: no resource supports %v", f.Inst.Op))
}

// argminOver picks the supported resource minimizing cost, breaking ties
// toward the earlier resource in isa.AllResources order (deterministic).
func argminOver[T cmp.Ordered](f *Features, cost func(isa.Resource) T) isa.Resource {
	best := isa.Resource(255)
	var bestCost T
	for _, r := range isa.AllResources {
		if !f.Supported[r] {
			continue
		}
		c := cost(r)
		if best == 255 || c < bestCost {
			best, bestCost = r, c
		}
	}
	if best == 255 {
		return supportedFallback(f)
	}
	return best
}

// Conduit is the paper's policy: argmin over resources of Eqn. 1. The zero
// value prices every term; each Drop switch removes one term of Eqn. 1 —
// counting it as zero — for the §6 ablations that quantify each term's
// contribution.
type Conduit struct {
	// DropQueue removes the resource-queueing-delay term.
	DropQueue bool
	// DropDep removes the data-dependence-delay term.
	DropDep bool
	// DropMove removes the data-movement-latency terms (operand and
	// result movement).
	DropMove bool
}

// Name implements Policy: "Conduit", suffixed by each dropped term
// ("Conduit-noqueue", "Conduit-nodep-nomove", ...).
func (c Conduit) Name() string {
	n := "Conduit"
	if c.DropQueue {
		n += "-noqueue"
	}
	if c.DropDep {
		n += "-nodep"
	}
	if c.DropMove {
		n += "-nomove"
	}
	return n
}

// Select implements Eqn. 2: offloading_target = argmin(total_latency_i).
// An ablated Conduit prices a copy of f whose dropped terms are zero; the
// zero value prices f itself.
func (c Conduit) Select(f *Features) isa.Resource {
	if c == (Conduit{}) {
		return argminOver(f, f.TotalLatency)
	}
	g := *f
	if c.DropQueue {
		g.QueueDelay = [isa.NumResources]sim.Time{}
	}
	if c.DropDep {
		g.DepDelay = 0
	}
	if c.DropMove {
		g.MoveLatency = [isa.NumResources]sim.Time{}
		g.ResultMove = [isa.NumResources]sim.Time{}
	}
	return argminOver(&g, g.TotalLatency)
}

// DMOffloading models prior data-movement-minimizing offloaders
// (e.g. ALP-style): it offloads each instruction to the resource that
// minimizes operand data movement, ignoring resource utilization and
// dependence delays. Ties break toward lower computation latency.
type DMOffloading struct{}

// Name implements Policy.
func (DMOffloading) Name() string { return "DM-Offloading" }

// Select implements Policy.
func (DMOffloading) Select(f *Features) isa.Resource {
	// Scale movement latency so it strictly dominates the compute
	// tie-breaker.
	return argminOver(f, func(r isa.Resource) sim.Time {
		return f.MoveLatency[r]*1024 + f.CompLatency[r]
	})
}

// BWOffloading models prior bandwidth-utilization-based offloaders
// (e.g. TOM-style): it offloads each instruction to the least
// bandwidth-utilized resource, ignoring movement cost.
type BWOffloading struct{}

// Name implements Policy.
func (BWOffloading) Name() string { return "BW-Offloading" }

// Select implements Policy. It is the one reader of the on-demand
// utilization signal, once per resource that supports the instruction.
func (BWOffloading) Select(f *Features) isa.Resource {
	return argminOver(f, f.BWUtil)
}

// ISPOnly executes everything on the SSD controller cores.
type ISPOnly struct{}

// Name implements Policy.
func (ISPOnly) Name() string { return "ISP" }

// Select implements Policy.
func (ISPOnly) Select(*Features) isa.Resource { return isa.ResISP }

// PuDSSD models the MIMDRAM-based PuD-SSD baseline: DRAM for every
// operation it supports, controller cores for the rest.
type PuDSSD struct{}

// Name implements Policy.
func (PuDSSD) Name() string { return "PuD-SSD" }

// Select implements Policy.
func (PuDSSD) Select(f *Features) isa.Resource {
	if f.Supported[isa.ResPuD] {
		return isa.ResPuD
	}
	return isa.ResISP
}

// FlashCosmos models the Flash-Cosmos baseline: bulk bitwise operations in
// the flash arrays via multi-wordline sensing; everything else on the
// controller cores (§5.3: baselines leverage the controller cores for
// computations they do not support).
type FlashCosmos struct{}

// Name implements Policy.
func (FlashCosmos) Name() string { return "Flash-Cosmos" }

// Select implements Policy.
func (FlashCosmos) Select(f *Features) isa.Resource {
	if f.Inst.Op.Class() == isa.ClassBitwise && f.Supported[isa.ResIFP] {
		return isa.ResIFP
	}
	return isa.ResISP
}

// AresFlash models the Ares-Flash baseline: bulk bitwise and integer
// arithmetic in flash; the rest on the controller cores.
type AresFlash struct{}

// Name implements Policy.
func (AresFlash) Name() string { return "Ares-Flash" }

// Select implements Policy.
func (AresFlash) Select(f *Features) isa.Resource {
	if f.Supported[isa.ResIFP] {
		return isa.ResIFP
	}
	return isa.ResISP
}

// NaiveCombo is the case-study strawman of §3.1 ("naively combining IFP
// and ISP"): it alternates IFP-capable instructions between flash and the
// controller cores without considering where the operands live, inducing
// the inter-resource ping-pong the case study measures.
type NaiveCombo struct {
	flip bool
}

// Name implements Policy.
func (*NaiveCombo) Name() string { return "IFP+ISP" }

// Select implements Policy.
func (n *NaiveCombo) Select(f *Features) isa.Resource {
	if !f.Supported[isa.ResIFP] {
		return isa.ResISP
	}
	n.flip = !n.flip
	if n.flip {
		return isa.ResIFP
	}
	return isa.ResISP
}
