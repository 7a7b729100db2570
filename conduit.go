// Package conduit is the public API of the Conduit reproduction: a
// programmer-transparent near-data-processing framework for SSDs
// (Nadig et al., HPCA 2026).
//
// The workflow mirrors the paper's two halves:
//
//  1. Compile-time preprocessing: express the application as loop nests
//     over arrays (Source), and Compile auto-vectorizes it into
//     page-aligned SIMD instructions with embedded metadata.
//  2. Runtime offloading: a System deploys the binary to a simulated
//     Conduit-capable SSD over the NVMe firmware-update path and executes
//     it under an offloading policy — Conduit's holistic cost function or
//     any of the paper's baselines — returning timing, energy, and
//     per-instruction offloading decisions.
//
// A minimal end-to-end use:
//
//	sys := conduit.NewSystem(conduit.DefaultConfig())
//	res, err := sys.Run(src, "Conduit")
//
// The experiments in cmd/experiments and bench_test.go regenerate every
// table and figure of the paper's evaluation through this API.
//
// # Reuse and concurrency contract
//
// A RunResult shares nothing mutable with the device: its counters are
// taken at completion, so later activity on any device — the one that
// produced it, restored and run again, included — can never change a
// result already handed out. It may be shared, though. A run that
// reproduces the result its deployment and policy published (every
// decision, time, energy and counter) returns that result's decision
// trace, reservoir and counters, and a served run that does so returns one
// RunResult shared by every such request. So read a result and never write
// it: code that adjusts one (the recovery ladder's penalties) copies it
// first.
//
// A simulated drive's loaded data image is consumed by execution: running
// a program mutates pages, calendars, and coherence state, so each
// ssd.Device executes at most one Run (a second Run fails fast). To
// execute many policies over one workload without paying the full NVMe
// deploy path per run, use Deploy: it performs the deploy once and the
// returned Deployment restores a pristine post-deploy device per run by
// cloning a frozen master copy-on-write, at a cost proportional to what
// the run writes rather than to the drive's size. Run, Fork and
// DevicePool.Get hand that device to the caller, who owns it from then on
// and may keep it; where nobody keeps it — a served request, a cluster
// shard, a memoized Experiments cell — the result's Device is nil, the
// device goes back to its Deployment, and the next fork restores it in
// place from the master (ssd.Device.Restore, the one copy routine Clone is
// also made of) instead of cloning: the same pristine state, for a memcpy.
// A System deploys onto clones of one frozen blank drive it builds once.
//
// System, Compiled, and Deployment are safe for concurrent use by
// multiple goroutines; every run executes on its own device, and a policy
// instance with per-run state is constructed per run. An ssd.Device
// itself is single-goroutine — never share one across goroutines. The
// Experiments.RunGrid sweep engine builds on this contract to execute a
// workload x policy grid across a worker pool with results byte-identical
// to the serial path.
//
// # Serving
//
// Above the one-shot API sits a request-serving layer for sustained
// traffic: a Server registers applications (compile + deploy once each),
// restores each served request's device once its response is out, so the
// next fork needs no copy, and dispatches concurrent multi-tenant
// requests through the internal/serve engine — admission queue, bounded
// concurrency, optional batching of identical in-flight requests,
// per-tenant latency/energy accounting, and graceful drain.
// Because every run is a deterministic function of (workload, policy),
// served responses are byte-identical to a serial loop over the same
// requests.
//
// Admission is two-mode: Server.Do is closed-loop (blocks for queue
// space, then the response), Server.Submit is open-loop (never blocks —
// a full queue sheds with ErrOverloaded, and a request whose Deadline
// expires while queued is dropped with ErrDeadlineExceeded before it can
// consume a pooled fork). Per-tenant wall-clock latency and SLO
// attainment are tracked in bounded, exactly-mergeable histograms
// (internal/histo). cmd/conduit-serve wraps both modes in
// deterministic load generators — closed-loop clients or open-loop
// Poisson/burst/diurnal arrival schedules (internal/loadgen) — with
// JSONL trace recording and time-scaled replay; Experiments.LatencyCurve
// sweeps offered load into throughput-latency/goodput curves.
//
// # Scale-out
//
// A Cluster (System.DeployCluster, Server.RegisterSharded) shards a
// workload's arrays row-block-wise across N independent simulated
// drives — broadcast arrays replicate per the workload's shardability
// metadata — deploying one compiled binary per shard through the same
// Deployment machinery. Run scatters a request into concurrent
// per-shard sub-runs on pooled forks and gathers the partials through a
// deterministic merge (max-of-shards for the parallel phase, shard-order
// sums and unions, plus a modeled host-side reduction for reduce-shaped
// kernels). A 1-shard cluster run is byte-identical to Deployment.Run,
// and N-shard concurrent execution is byte-identical to serial
// shard-by-shard execution (Cluster.RunSerial) — both enforced by tests.
package conduit

import (
	"fmt"
	"strings"
	"sync"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/host"
	"conduit/internal/isa"
	"conduit/internal/nvme"
	"conduit/internal/offload"
	"conduit/internal/sim"
	"conduit/internal/ssd"
	"conduit/internal/stats"
	"conduit/internal/trace"
)

// Re-exported building blocks for constructing applications.
type (
	// Config is the simulated system configuration (Table 2).
	Config = config.Config
	// Source is an application: arrays plus loop nests.
	Source = compiler.Source
	// Stmt is a top-level statement (Loop or ScalarWork).
	Stmt = compiler.Stmt
	// Array declares application data.
	Array = compiler.Array
	// Fill generates an input array's initial bytes on demand.
	Fill = compiler.Fill
	// Loop is an affine loop nest over lanes.
	Loop = compiler.Loop
	// Assign is one loop-body statement.
	Assign = compiler.Assign
	// ScalarWork is an inherently sequential control region.
	ScalarWork = compiler.ScalarWork
	// Expr is a loop-body expression.
	Expr = compiler.Expr
	// Ref reads an array at the loop index plus an offset.
	Ref = compiler.Ref
	// Lit is a broadcast literal.
	Lit = compiler.Lit
	// Bin is a binary operation.
	Bin = compiler.Bin
	// Un is a unary operation.
	Un = compiler.Un
	// Cond is lanewise predication.
	Cond = compiler.Cond
	// Compiled is a vectorized program with metadata.
	Compiled = compiler.Compiled
	// Decision is one runtime offloading decision.
	Decision = ssd.Decision
	// Reservoir holds latency samples with exact percentiles.
	Reservoir = stats.Reservoir
	// Counters is a named set of substrate activity tallies.
	Counters = stats.Counters
	// Table renders experiment output.
	Table = stats.Table
	// Time is simulated time in nanoseconds.
	Time = sim.Time
)

// Source-level operations.
const (
	OpAdd = compiler.OpAdd
	OpSub = compiler.OpSub
	OpMul = compiler.OpMul
	OpDiv = compiler.OpDiv
	OpAnd = compiler.OpAnd
	OpOr  = compiler.OpOr
	OpXor = compiler.OpXor
	OpNot = compiler.OpNot
	OpShl = compiler.OpShl
	OpShr = compiler.OpShr
	OpLT  = compiler.OpLT
	OpGT  = compiler.OpGT
	OpEQ  = compiler.OpEQ
	OpMin = compiler.OpMin
	OpMax = compiler.OpMax
)

// DefaultConfig returns the evaluated Table-2 configuration.
func DefaultConfig() Config { return config.Default() }

// Bytes is the Fill of an explicit dataset: the array starts as b.
func Bytes(b []byte) Fill { return compiler.Bytes(b) }

// Compile runs Conduit's compile-time preprocessing for the given device
// configuration.
func Compile(src *Source, cfg *Config) (*Compiled, error) {
	return compiler.Compile(src, cfg.SSD.PageSize)
}

// policyEntry is one policy: its name, whether it belongs to the
// ablation lineup, and how it runs. policyTable is the single source of
// policy-name truth: Policies, AblationPolicies, KnownPolicy and
// errUnknownPolicy derive from it, and every run path resolves a name to
// its row once (lookupPolicy) and then reads the row, never the name, so
// a policy added here is advertised, validated, and runnable everywhere
// at once.
type policyEntry struct {
	name     string
	ablation bool
	run      runner
	host     host.Kind             // the model an onHost policy runs on
	device   func() offload.Policy // the instance an onDevice run selects with
}

// stateless is the device() of a policy that keeps no per-run state: one
// value, boxed once, serves every run.
func stateless(p offload.Policy) func() offload.Policy {
	return func() offload.Policy { return p }
}

// runner is how a policy runs: on a deployed drive under the device()
// instance of the run (a fresh one for a baseline that carries per-run
// state, e.g. IFP+ISP; one shared value for a stateless policy), on the
// host model host with no drive, or on a deployed drive as
// the unrealizable Ideal (ssd.Device.RunIdeal, with its own in-flash
// profile). unknownPolicy marks the row lookupPolicy makes for a name the
// table lacks; every run path refuses it with errUnknownPolicy.
type runner uint8

const (
	onDevice runner = iota
	onHost
	asIdeal
	unknownPolicy
)

var policyTable = []policyEntry{
	// Main lineup, in the order the paper's figures present it.
	{name: "CPU", run: onHost, host: host.CPU},
	{name: "GPU", run: onHost, host: host.GPU},
	{name: "ISP", device: stateless(offload.ISPOnly{})},
	{name: "PuD-SSD", device: stateless(offload.PuDSSD{})},
	{name: "Flash-Cosmos", device: stateless(offload.FlashCosmos{})},
	{name: "Ares-Flash", device: stateless(offload.AresFlash{})},
	{name: "BW-Offloading", device: stateless(offload.BWOffloading{})},
	{name: "DM-Offloading", device: stateless(offload.DMOffloading{})},
	{name: "Conduit", device: stateless(offload.Conduit{})},
	{name: "Ideal", run: asIdeal},
	// Ablations and combinations: the naive IFP+ISP of the §3.1 case
	// study, and Conduit with one cost-function term removed (the
	// AblationCostFeatures experiment).
	{name: "IFP+ISP", ablation: true, device: func() offload.Policy { return &offload.NaiveCombo{} }},
	{name: "Conduit-noqueue", ablation: true, device: stateless(offload.Conduit{DropQueue: true})},
	{name: "Conduit-nodep", ablation: true, device: stateless(offload.Conduit{DropDep: true})},
	{name: "Conduit-nomove", ablation: true, device: stateless(offload.Conduit{DropMove: true})},
}

// lookupPolicy resolves name to its policyTable row, or to an
// unknownPolicy row for a name the table lacks.
func lookupPolicy(name string) *policyEntry {
	for i := range policyTable {
		if policyTable[i].name == name {
			return &policyTable[i]
		}
	}
	return &policyEntry{name: name, run: unknownPolicy}
}

func policyNames(ablation bool) []string {
	var out []string
	for _, e := range policyTable {
		if e.ablation == ablation {
			out = append(out, e.name)
		}
	}
	return out
}

// Policies lists every evaluated execution policy, in the order the
// paper's figures present them. The ablation and combination policies the
// evaluation additionally exercises are listed by AblationPolicies; both
// sets are accepted wherever a policy name is taken.
func Policies() []string { return policyNames(false) }

// AblationPolicies lists the ablation and combination policies the
// evaluation uses beyond the main lineup.
func AblationPolicies() []string { return policyNames(true) }

// KnownPolicy reports whether name is accepted by the Run methods —
// a member of Policies or AblationPolicies.
func KnownPolicy(name string) bool { return lookupPolicy(name).run != unknownPolicy }

// errUnknownPolicy is the uniform rejection for a policy name neither
// Policies nor AblationPolicies knows.
func errUnknownPolicy(name string) error {
	return fmt.Errorf("conduit: unknown policy %q (valid: %s; ablations: %s)",
		name, strings.Join(Policies(), ", "), strings.Join(AblationPolicies(), ", "))
}

// RunResult is the unified outcome of executing a workload under one
// policy (host, in-SSD, or ideal).
type RunResult struct {
	Policy         string
	Elapsed        Time
	ComputeEnergy  float64 // joules
	MovementEnergy float64 // joules
	// InstLatencies and Decisions (the offloading trace; nil for host
	// executions) may be shared with other results of the same deployment
	// and policy, and a served result may be shared whole: read them,
	// never write them.
	InstLatencies *Reservoir
	Decisions     []Decision
	// OverheadTime is the runtime offloader overhead (§4.5); zero for
	// host and ideal executions.
	OverheadTime Time
	// Counters holds substrate activity (senses, bbops, migrations ...);
	// nil for host executions. Cluster runs report the shard-order sum.
	Counters *Counters
	// Device exposes the drive after an in-SSD run for inspection; nil
	// otherwise — in particular nil on served, cluster-merged and
	// Experiments results, which are shared or have no single drive.
	Device *ssd.Device
}

// TotalEnergy is compute plus movement energy in joules.
func (r *RunResult) TotalEnergy() float64 { return r.ComputeEnergy + r.MovementEnergy }

// System compiles, deploys, and executes applications on a simulated
// Conduit-capable SSD and on the host baselines.
type System struct {
	cfg Config
	// blank is the empty drive every deploy clones: built by ssd.New once
	// (blankOnce), frozen, and never written.
	blankOnce sync.Once
	blank     *ssd.Device
	blankErr  error // cfg.Validate's verdict, which every deploy returns
}

// NewSystem returns a System for cfg. The system runs in timing-only
// mode: the simulated data plane carries no payloads, which makes runs
// far faster while producing byte-identical Results (every modeled
// latency is data-independent). Page contents are not materialized, so
// Device.PageBytes reports an error; use NewReferenceSystem when the
// computed bytes themselves are needed.
func NewSystem(cfg Config) *System {
	cfg.SSD.TimingOnly = true
	return &System{cfg: cfg}
}

// NewReferenceSystem returns a System that executes the full functional
// data plane: every kernel computes real page payloads, which can be
// read back through Device.PageBytes. It is the
// oracle against which the timing-only fast path is differentially
// tested, and is typically several times slower.
func NewReferenceSystem(cfg Config) *System {
	cfg.SSD.TimingOnly = false
	return &System{cfg: cfg}
}

// RunCompiled executes an already-compiled program under the named policy.
// Each call deploys onto a fresh simulated drive through the full NVMe
// path, since execution consumes the loaded data image. Sweeps over many
// policies should Deploy once and run on the Deployment instead.
func (s *System) RunCompiled(c *Compiled, policy string) (*RunResult, error) {
	return s.runOn(c, lookupPolicy(policy), func() (*ssd.Device, error) { return s.deploy(c) })
}

// runOn executes c under policy p. Host baselines need no drive and run
// from the compiled program; every other policy executes on the device
// the callback provides — a fresh deploy, or a deployment's fork — which
// is asked for only once p is known to be a policy.
func (s *System) runOn(c *Compiled, p *policyEntry, device func() (*ssd.Device, error)) (*RunResult, error) {
	switch p.run {
	case onHost:
		return s.runHost(c, p)
	case unknownPolicy:
		return nil, errUnknownPolicy(p.name)
	}
	dev, err := device()
	if err != nil {
		return nil, err
	}
	return runPolicyOn(dev, p)
}

// runHost executes c on p's host model, one of the OSP baselines (no
// drive involved).
func (s *System) runHost(c *Compiled, p *policyEntry) (*RunResult, error) {
	res, _, err := host.New(&s.cfg, p.host).Run(c.Prog, c.InputPage)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Policy:         p.name,
		Elapsed:        res.Elapsed,
		ComputeEnergy:  res.ComputeEnergy,
		MovementEnergy: res.MovementEnergy,
		InstLatencies:  res.InstLatencies,
	}, nil
}

// runPolicyOn executes policy p — an onDevice or asIdeal row — on a
// deployed device, consuming its loaded image.
func runPolicyOn(dev *ssd.Device, p *policyEntry) (*RunResult, error) {
	res, err := runDevice(dev, p)
	if err != nil {
		return nil, err
	}
	return resultOf(p, res, dev), nil
}

// runDevice is runPolicyOn's device run; the result may be the one its
// policy's record published (ssd.Device.Run).
func runDevice(dev *ssd.Device, p *policyEntry) (res *ssd.Result, err error) {
	if p.run == asIdeal {
		res, _, err = dev.RunIdeal()
	} else {
		dev.EnterComputationMode()
		res, err = dev.Run(p.device())
		dev.ExitComputationMode()
	}
	return res, err
}

// resultOf is the RunResult of p's device run res on dev (nil for none).
func resultOf(p *policyEntry, res *ssd.Result, dev *ssd.Device) *RunResult {
	return &RunResult{
		Policy:         p.name,
		Elapsed:        res.Elapsed,
		ComputeEnergy:  res.ComputeEnergy,
		MovementEnergy: res.MovementEnergy,
		InstLatencies:  res.InstLatencies,
		Decisions:      res.Decisions,
		OverheadTime:   res.OverheadTime,
		Counters:       res.Counters,
		Device:         dev,
	}
}

// withElapsed returns r with its Elapsed set to e: r itself when e is
// already its Elapsed, else a copy, since r may be shared.
func (r *RunResult) withElapsed(e Time) *RunResult {
	if e == r.Elapsed {
		return r
	}
	c := *r
	c.Elapsed = e
	return &c
}

// A Deployment is a compiled program deployed onto a simulated drive,
// reusable across runs. The NVMe deploy (per-page I/O writes, chunked
// fw-download, fw-commit) executes exactly once, in Deploy; each Run then
// restores the post-deploy device by cloning the pristine, frozen master
// instead of re-driving the NVMe path. The clone shares the master's
// page- and block-granular tables copy-on-write (ssd.Device.Freeze), so a
// fork costs the tables' node directories plus the small per-plane and
// per-slot state, and the run pays for the leaves it writes. Runs on one
// Deployment are independent and safe to issue from multiple goroutines
// concurrently; results are byte-identical to deploying freshly per run.
//
// A fork whose device nobody keeps (a served request's, a cluster shard's,
// a sweep cell's) is parked after its run (runParked) and the next fork
// restores it in place from the master instead of cloning (fork). Run
// and Fork hand the device to the caller, who may keep it, so theirs is
// never reused.
type Deployment struct {
	sys    *System
	c      *Compiled
	master *ssd.Device // pristine post-deploy image; never executed

	poolMu sync.Mutex
	pool   *DevicePool   // optional prefork pool (see Prefork); nil = no eager clones
	used   []*ssd.Device // parked: executed forks awaiting reuse, newest last
	ready  []*ssd.Device // restored forks awaiting the next fork, newest last
	closed bool          // Close was called: nothing is parked any more

	// shared maps each result the master's records published
	// (*ssd.Result) to the one RunResult, with no Device, that every
	// parked run reproducing it returns (runParked).
	shared sync.Map
}

// Deploy compiles nothing and runs nothing: it installs the already
// compiled program on a fresh drive over the NVMe path and captures the
// result as a reusable Deployment.
func (s *System) Deploy(c *Compiled) (*Deployment, error) {
	dev, err := s.deploy(c)
	if err != nil {
		return nil, err
	}
	// The master is cloned per Run and never executed itself: freeze its
	// large tables so each fork aliases them copy-on-write.
	dev.Freeze()
	return &Deployment{sys: s, c: c, master: dev}, nil
}

// Fork returns a fresh device restored to the post-deploy state. The
// caller owns the returned device exclusively; the pristine master is
// never handed out. The device is byte-identical whether it was ready,
// restored or cloned (see fork). Since it never comes back, Fork then
// restocks the ready list to the depth of the attached pool, if any
// (Prefork). Once the pool has been closed (the deployment was drained)
// Fork fails with ErrPoolClosed instead of silently forking.
func (d *Deployment) Fork() (*ssd.Device, error) {
	dev, err := d.fork()
	if err == nil {
		d.restock()
	}
	return dev, err
}

// fork takes the newest ready device, else restores the most recently
// parked one from the master (a memcpy that allocates nothing once the
// device owns the leaves its workload writes), else clones the master. It
// makes no device ahead: the served path forks here directly, since its
// device comes back through settle.
func (d *Deployment) fork() (*ssd.Device, error) {
	d.poolMu.Lock()
	p := d.pool
	if p != nil && p.stats.Closed {
		d.poolMu.Unlock()
		return nil, ErrPoolClosed
	}
	dev := pop(&d.ready)
	inline := dev == nil
	if inline {
		dev = pop(&d.used)
	}
	switch {
	case p == nil: // no pool, no counters
	case !inline:
		p.stats.Hits++
	default:
		p.stats.Misses++
		if dev != nil {
			p.stats.Restored++
		}
	}
	d.poolMu.Unlock()
	if inline {
		dev = d.renew(dev)
	}
	return dev, nil
}

// restock tops the ready list up to the attached pool's depth on the
// caller's goroutine, restoring parked devices before cloning the master.
// Without an open pool it does nothing; a device made while the pool was
// closed or replaced is dropped.
func (d *Deployment) restock() {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	for p := d.pool; p != nil && !p.stats.Closed && len(d.ready) < p.depth; {
		dev := pop(&d.used)
		p.stats.Preforked++
		if dev != nil {
			p.stats.Restored++
		}
		d.poolMu.Unlock()
		dev = d.renew(dev)
		d.poolMu.Lock()
		if d.pool != p || p.stats.Closed {
			return
		}
		d.ready = append(d.ready, dev)
	}
}

// renew restores the parked device dev from the master, or clones the
// master when dev is nil.
func (d *Deployment) renew(dev *ssd.Device) *ssd.Device {
	if dev == nil {
		return d.master.Clone()
	}
	dev.Restore(d.master)
	return dev
}

// pop takes the newest device off list, or returns nil.
func pop(list *[]*ssd.Device) (dev *ssd.Device) {
	if n := len(*list) - 1; n >= 0 {
		dev, (*list)[n] = (*list)[n], nil
		*list = (*list)[:n]
	}
	return dev
}

// settle restores a parked device and lists it ready for the next fork. A
// served request's goroutine calls it once the response is out
// (serve.Settler): off the response's path, and no other goroutine wakes.
func (d *Deployment) settle() {
	d.poolMu.Lock()
	dev := pop(&d.used)
	d.poolMu.Unlock()
	if dev == nil {
		return
	}
	dev.Restore(d.master)
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	if d.closed {
		return
	}
	d.ready = append(d.ready, dev)
	if p := d.pool; p != nil {
		p.stats.Preforked++
		p.stats.Restored++
	}
}

// parkDevice lists dev for the next fork, unless Close was called. It
// needs no cap: fork clones only when nothing is ready or parked, and
// restock only up to the pool's depth, so the lists never hold more than
// the pool's depth plus the most devices out or being forked at once.
func (d *Deployment) parkDevice(dev *ssd.Device) {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	if !d.closed {
		d.used = append(d.used, dev)
	}
}

// flush drops every parked device, ready or not. The caller holds poolMu.
func (d *Deployment) flush() {
	clear(d.used)
	clear(d.ready)
	d.used, d.ready = d.used[:0], d.ready[:0]
}

// Run executes the deployed program under the named policy on a restored
// post-deploy device (host baselines need no device and use the compiled
// program directly). Safe for concurrent use.
func (d *Deployment) Run(policy string) (*RunResult, error) { return d.run(lookupPolicy(policy)) }

// run is Run with the policy resolved.
func (d *Deployment) run(p *policyEntry) (*RunResult, error) { return d.sys.runOn(d.c, p, d.Fork) }

// runAttempt is a served run with span recording: the device execution
// becomes a "device.run" child span of sp whose simulated extent is the
// run's elapsed simulated time. The recovery ladder may run d more than
// once under one span (retries, fallback): key tells the sibling spans
// apart. A nil sp records nothing.
//
// Served results never expose the executed drive (a coalesced response
// is shared between requests, and an ssd.Device is single-goroutine), so
// it runs through runParked, and a request that reproduces a published
// result allocates no result.
func (d *Deployment) runAttempt(p *policyEntry, sp *trace.Span, key string) (*RunResult, error) {
	child := sp.Child("device.run", key, 0)
	child.SetAttr("policy", p.name)
	r, err := d.runParked(p)
	if err != nil {
		child.End(0)
		return nil, err
	}
	child.End(int64(r.Elapsed))
	return r, nil
}

// runParked runs p on a fork and parks the device for the next fork: the
// run of every caller that drops the device (a served request, a cluster
// shard, a sweep cell). A run that reproduces the result its policy's
// record published returns the one RunResult d keeps for that result, so
// the result carries no Device and may be shared: read it, never write it.
func (d *Deployment) runParked(p *policyEntry) (*RunResult, error) {
	if p.run != onDevice && p.run != asIdeal {
		return d.run(p) // a host run: no drive to park
	}
	dev, err := d.fork()
	if err != nil {
		return nil, err
	}
	res, err := runDevice(dev, p)
	if err != nil {
		return nil, err
	}
	d.parkDevice(dev)
	if v, ok := d.shared.Load(res); ok {
		return v.(*RunResult), nil
	}
	r := resultOf(p, res, nil)
	// The master never runs, and its records are every fork's.
	if d.master.Published(res) {
		v, _ := d.shared.LoadOrStore(res, r)
		r = v.(*RunResult)
	}
	return r, nil
}

// deploy installs the program on a clone of the System's blank drive. A
// clone of the frozen blank shares its tables copy-on-write, so a deploy
// pays for the leaves it writes, not for building a drive (ssd.New seeds
// every free-block leaf of the FTL). A configuration Validate rejects
// builds no drive, and every deploy reports why.
func (s *System) deploy(c *Compiled) (*ssd.Device, error) {
	s.blankOnce.Do(func() {
		cfg := s.cfg
		if s.blankErr = cfg.Validate(); s.blankErr == nil {
			s.blank = ssd.New(&cfg)
			s.blank.Freeze()
		}
	})
	if s.blankErr != nil {
		return nil, s.blankErr
	}
	return s.install(s.blank.Clone(), c)
}

// install puts the program on dev through the NVMe path: stage inputs via
// I/O writes, transfer the binary with fw-download, and activate it with
// the flagged fw-commit (§4.4). A timing-only drive reads no payload, so
// its inputs are staged nil and no dataset byte is generated.
func (s *System) install(dev *ssd.Device, c *Compiled) (*ssd.Device, error) {
	ctrl := nvme.NewController(dev)
	for _, p := range c.Prog.InputPages {
		var page []byte
		if !s.cfg.SSD.TimingOnly {
			page = make([]byte, s.cfg.SSD.PageSize)
			c.InputPage(p, page)
		}
		if err := ctrl.WritePage(p, page); err != nil {
			return nil, err
		}
	}
	img := nvme.MarshalProgram(c.Prog)
	const chunk = 64 << 10
	for off := 0; off < len(img); off += chunk {
		end := off + chunk
		if end > len(img) {
			end = len(img)
		}
		if err := ctrl.FWDownload(img[off:end], off); err != nil {
			return nil, err
		}
	}
	if err := ctrl.FWCommit(true); err != nil {
		return nil, err
	}
	return dev, nil
}

// NumResources is the number of SSD computation resources.
const NumResources = isa.NumResources

// Fractions reports the share of instructions offloaded to each resource
// in a decision trace (Fig. 9).
func Fractions(decisions []Decision) [NumResources]float64 { return ssd.Fractions(decisions) }
