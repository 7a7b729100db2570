package faultinject

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"conduit/internal/sim"
)

// Config sets the per-attempt fault probabilities. The zero Config
// injects nothing: an Injector built from it draws its schedule but
// never fires, so wiring the machinery in at zero rates leaves every
// run byte-identical to one with no injector at all.
type Config struct {
	// Seed roots every per-site decision stream.
	Seed uint64
	// ShardFail is the probability a device-level shard run fails after
	// executing (its work is charged, its result discarded).
	ShardFail float64
	// SlowShard is the probability a shard run is degraded: its
	// simulated elapsed time is multiplied by SlowFactor, modeling a
	// busy or throttled drive without changing what it computed.
	SlowShard float64
	// SlowFactor is the degradation multiplier (< 1 selects 4, above
	// MaxSlowdown selects MaxSlowdown).
	SlowFactor float64
	// PanicRate is the probability a shard run panics mid-flight — the
	// containment drill for the scatter-gather recovery path.
	PanicRate float64
	// ForkFail is the probability acquiring a pooled fork fails before
	// any device is obtained.
	ForkFail float64
	// PoisonFork is the probability an acquired fork is poisoned: the
	// clone is unusable, the attempt fails, and the pool drops its ready
	// and parked devices and re-clones (see conduit.DevicePool).
	PoisonFork float64
	// BackendError is the probability the serve-level dispatch of a
	// request errors before reaching the application at all.
	BackendError float64
}

// MaxSlowdown bounds the slow-shard multiplier: a drive a thousand times
// slower is already a dead one, and the bound keeps a degraded run's
// simulated time far inside sim.Time.
const MaxSlowdown = 1000

func (c Config) slowFactor() float64 {
	if c.SlowFactor < 1 {
		return 4
	}
	return min(c.SlowFactor, MaxSlowdown)
}

// Kind names an injected fault class in logs and reports.
type Kind string

// The injectable fault kinds, one per seam decision.
const (
	KindBackend   Kind = "backend"    // serve-level dispatch error
	KindForkFail  Kind = "fork-fail"  // pool-level fork acquisition failure
	KindPoison    Kind = "poison"     // pool-level poisoned clone
	KindPanic     Kind = "panic"      // device-level shard run panic
	KindShardFail Kind = "shard-fail" // device-level shard run failure
	KindSlow      Kind = "slow"       // device-level slow-shard degradation
)

// Fault is one injected fault, as recorded and replayed. Site plus
// SiteSeq identify the exact decision point (the SiteSeq'th decision
// drawn at Site), which is what lets a replay injector reproduce the
// schedule without an RNG; Seq orders the log as captured.
type Fault struct {
	Seq      int64   `json:"seq"`
	Site     string  `json:"site"`
	SiteSeq  int64   `json:"site_seq"`
	Kind     Kind    `json:"kind"`
	Workload string  `json:"workload"`
	Shard    int     `json:"shard,omitempty"`
	Attempt  int     `json:"attempt"`
	Slowdown float64 `json:"slowdown,omitempty"`
}

// Seam names one injection point of the serving stack.
type Seam int

// The three seams, one row of seams each.
const (
	Serve  Seam = iota // serve-level dispatch of a request
	Pool               // pool-level fork acquisition on a shard
	Device             // device-level shard run
)

// seams is the one table of injection points. A seam's sites are named
// prefix+workload, with "#shard" appended on a sharded seam, and each
// draw takes one uniform per kind in the order listed. That order is also
// the precedence: the first kind whose uniform falls under its rate is
// the fault injected.
var seams = [...]struct {
	prefix  string
	sharded bool
	kinds   []Kind
}{
	Serve:  {"serve|", false, []Kind{KindBackend}},
	Pool:   {"pool|", true, []Kind{KindForkFail, KindPoison}},
	Device: {"dev|", true, []Kind{KindPanic, KindShardFail, KindSlow}},
}

// site names the injection site of a draw at seam s.
func (s Seam) site(workload string, shard int) string {
	if !seams[s].sharded {
		return seams[s].prefix + workload
	}
	return seams[s].prefix + workload + "#" + strconv.Itoa(shard)
}

// Check reports why an Injector could not have written f: no seam
// injects its kind at its site (for its workload and shard), its
// site_seq is negative, it carries a slowdown its kind does not, or the
// slowdown lies outside 0 and [1, MaxSlowdown] (a slow fault's above 1).
// Fault logs are read through it, so a replay injects only what a live
// run could have drawn.
func Check(f Fault) error {
	s := Seam(0)
	for s < Seam(len(seams)) && !slices.Contains(seams[s].kinds, f.Kind) {
		s++
	}
	switch {
	case s == Seam(len(seams)) || f.Site != s.site(f.Workload, f.Shard) || !seams[s].sharded && f.Shard != 0:
		return fmt.Errorf("no seam injects a %q fault at site %q (workload %q, shard %d)", f.Kind, f.Site, f.Workload, f.Shard)
	case f.SiteSeq < 0:
		return fmt.Errorf("negative site_seq %d", f.SiteSeq)
	case f.Slowdown != 0 && !f.Kind.slowed():
		return fmt.Errorf("a %q fault carries no slowdown, got %g", f.Kind, f.Slowdown)
	case f.Slowdown != 0 && !(f.Slowdown >= 1 && f.Slowdown <= MaxSlowdown),
		f.Kind == KindSlow && f.Slowdown <= 1:
		return fmt.Errorf("%q slowdown %g outside [1, %d]", f.Kind, f.Slowdown, MaxSlowdown)
	}
	return nil
}

// slowed reports whether a fault of kind k carries the run's slowdown: a
// slow run does, and so does a failed one, whose discarded attempt burnt
// its degraded time.
func (k Kind) slowed() bool { return k == KindShardFail || k == KindSlow }

// siteSeq identifies one decision: the seq'th draw at a site.
type siteSeq struct {
	site string
	seq  int64
}

// siteState is one injection site's private decision stream.
type siteState struct {
	rng *sim.RNG
	seq int64
}

// An Injector draws the fault schedule. A nil *Injector is the disabled
// layer: Draw returns the zero Fault without touching any state, so
// fault-free paths pay one nil check.
//
// An Injector is safe for concurrent use; decisions at distinct sites
// are independent substreams, so concurrency across sites cannot
// perturb any site's schedule.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rates map[Kind]float64 // cfg's per-draw probability of each kind
	sites map[string]*siteState
	// replay, when non-nil, overrides the RNG: decision (site, seq)
	// fires iff the recorded log fired there.
	replay map[siteSeq]Fault
	log    []Fault
	seq    int64
}

// New builds a live injector drawing from cfg's seeded streams.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, sites: make(map[string]*siteState), rates: map[Kind]float64{
		KindBackend: cfg.BackendError, KindForkFail: cfg.ForkFail, KindPoison: cfg.PoisonFork,
		KindPanic: cfg.PanicRate, KindShardFail: cfg.ShardFail, KindSlow: cfg.SlowShard,
	}}
}

// NewReplay builds an injector that replays a recorded fault log: the
// i'th decision at each site fires exactly as recorded, independent of
// any rate configuration. Decisions beyond the log inject nothing.
func NewReplay(faults []Fault) *Injector {
	in := &Injector{sites: make(map[string]*siteState), replay: make(map[siteSeq]Fault, len(faults))}
	for _, f := range faults {
		in.replay[siteSeq{f.Site, f.SiteSeq}] = f
	}
	return in
}

// Log returns a copy of every fault injected so far, in capture order.
// Under a serial driver the order is fully deterministic; concurrent
// drivers stay deterministic per site (Site+SiteSeq), which is the
// identity replay keys on.
func (in *Injector) Log() []Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.log...)
}

// siteSeed derives the site's independent substream seed by mixing the
// root seed with an FNV-1a hash of the site name through the SplitMix64
// finalizer (the same split discipline as loadgen.Stream). Hashing the
// name — rather than numbering sites by creation order — makes the
// substream a pure function of the site's identity.
func siteSeed(root uint64, site string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	z := root + (h+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// site returns (creating if needed) the state for a site; caller holds
// in.mu.
func (in *Injector) site(name string) *siteState {
	st := in.sites[name]
	if st == nil {
		st = &siteState{rng: sim.NewRNG(siteSeed(in.cfg.Seed, name))}
		in.sites[name] = st
	}
	return st
}

// record appends one injected fault to the log and returns it as
// logged; caller holds in.mu.
func (in *Injector) record(f Fault) Fault {
	f.Seq = in.seq
	in.seq++
	in.log = append(in.log, f)
	return f
}

// Draw decides one attempt at seam s for workload (and shard, on a
// sharded seam) and returns the injected fault as logged, or the zero
// Fault when none fires. A live injector consumes one uniform per kind
// of the seam on every call, so a site's stream position is a function
// of its call count alone; a slow draw at a SlowFactor of 1 injects
// nothing. A replay injector fires the recorded fault at (site,
// site_seq) if its kind belongs to the seam, and ignores it otherwise.
func (in *Injector) Draw(s Seam, workload string, shard, attempt int) Fault {
	if in == nil {
		return Fault{}
	}
	site := s.site(workload, shard)
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.site(site)
	seq := st.seq
	st.seq++
	if in.replay != nil {
		f, ok := in.replay[siteSeq{site, seq}]
		if !ok || !slices.Contains(seams[s].kinds, f.Kind) {
			return Fault{}
		}
		return in.record(f)
	}
	f := Fault{Site: site, SiteSeq: seq, Workload: workload, Attempt: attempt}
	if seams[s].sharded {
		f.Shard = shard
	}
	var slowdown float64
	for _, k := range seams[s].kinds {
		if st.rng.Float64() >= in.rates[k] {
			continue
		}
		if k == KindSlow {
			slowdown = in.cfg.slowFactor()
		}
		if f.Kind == "" {
			f.Kind = k
		}
	}
	if f.Kind.slowed() {
		f.Slowdown = slowdown
	}
	if f.Kind == "" || f.Kind == KindSlow && f.Slowdown <= 1 {
		return Fault{}
	}
	return in.record(f)
}
