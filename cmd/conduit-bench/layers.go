package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	conduit "conduit"
	"conduit/internal/serve"
	"conduit/internal/sim"
	"conduit/internal/ssd"
	"conduit/internal/target"
	"conduit/internal/trace"
	"conduit/internal/wire"
	"conduit/internal/workloads"
)

// perLayer are the single-layer metrics of the trace pass, grouped by
// the layer they measure. None has a bound. The README's glossary says
// which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	// compiler
	{Name: "compiler.compile_us", Unit: "us", Better: "lower"},
	{Name: "compiler.insts", Unit: "count", Better: "lower"},
	// conduit: deploy, fork, pool
	{Name: "conduit.deploy_us", Unit: "us", Better: "lower"},
	{Name: "conduit.fork_us", Unit: "us", Better: "lower"},
	{Name: "conduit.fork_alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "conduit.run_self_us", Unit: "us", Better: "lower"},
	{Name: "pool.get_us", Unit: "us", Better: "lower"},
	{Name: "pool.hit_pct", Unit: "%", Better: "higher"},
	{Name: "pool.misses", Unit: "count", Better: "lower"},
	// ssd, with sim / offload / nand / dram / ftl / cores inside it
	{Name: "ssd.run_us", Unit: "us", Better: "lower"},
	{Name: "ssd.run_alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "ssd.us_per_kinst", Unit: "us", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	// exact simulated counts: a host-speed change must leave them identical
	{Name: "ssd.insts_per_req", Unit: "count", Better: "lower"},
	{Name: "ssd.sim_us_per_req", Unit: "us", Better: "lower"},
	{Name: "offload.isp_pct", Unit: "%", Better: "higher"},
	{Name: "offload.pud_pct", Unit: "%", Better: "higher"},
	{Name: "offload.ifp_pct", Unit: "%", Better: "higher"},
	{Name: "dram.bbops_per_req", Unit: "count", Better: "lower"},
	{Name: "dram.kb_moved_per_req", Unit: "KiB", Better: "lower"},
	{Name: "flash.senses_per_req", Unit: "count", Better: "lower"},
	{Name: "flash.kb_out_per_req", Unit: "KiB", Better: "lower"},
	{Name: "ftl.map_hit_pct", Unit: "%", Better: "higher"},
	{Name: "core.cycles_per_req", Unit: "count", Better: "lower"},
	// serve
	{Name: "serve.do_us", Unit: "us", Better: "lower"},
	{Name: "serve.do_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.do_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.do_p999_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine_noop_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.saturated_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.expired", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "lower"},
	// wire
	{Name: "wire.encode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.req_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.rtt_floor_us", Unit: "us", Better: "lower"},
	// target
	{Name: "target.do_self_us", Unit: "us", Better: "lower"},
	{Name: "target.wire_response_us", Unit: "us", Better: "lower"},
	// router
	{Name: "router.do_us", Unit: "us", Better: "lower"},
	{Name: "router.do_self_us", Unit: "us", Better: "lower"},
	{Name: "router.do_p99_us", Unit: "us", Better: "lower"},
	{Name: "router.attempts_per_req", Unit: "count", Better: "lower"},
	{Name: "router.retries", Unit: "count", Better: "lower"},
	{Name: "router.refusals", Unit: "count", Better: "lower"},
	{Name: "router.home_share_pct", Unit: "%", Better: "lower"},
	// the ladder's reconciliation and the shares the workloads were chosen for
	{Name: "ladder.fork_run_self_us", Unit: "us", Better: "lower"},
	{Name: "ladder.residual_us", Unit: "us", Better: "lower"},
	{Name: "share.ssd_run_of_serve_do_pct", Unit: "%", Better: "higher"},
	{Name: "share.fork_of_ssd_run_pct", Unit: "%", Better: "lower"},
	{Name: "share.wire_of_router_do_pct", Unit: "%", Better: "lower"},
	// metrics / trace
	{Name: "metrics.scrape_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	// host: the quality of the run, never gated
	{Name: "gc.cpu_pct", Unit: "%", Better: "lower"},
	{Name: "gc.cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "host.steal_pct", Unit: "%", Better: "lower"},
	{Name: "host.cpu_pressure_pct", Unit: "%", Better: "lower"},
}

// ladderRequests is the least number of requests the ladder replays; the
// count used is the next whole number of balanced blocks, so that the
// replayed composition, and with it every exact simulated count, is the
// same under every seed.
const ladderRequests = 1500

// span is one benchmark-side span: a timed call into a layer's public
// function for ladder request Req. Parent names the span of the
// enclosing layer for the same request; each depth serves the request
// in its own call, so a parent encloses its child in the layering, not in
// wall time. Times are nanoseconds since the trace pass began.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Req      int    `json:"req"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer is the state of one workload's trace pass.
type tracer struct {
	o     options
	w     *workload
	refs  table
	seq   []request
	epoch time.Time
	spans []span
	vals  map[string]float64
	out   workloadOut
}

// timed runs fn inside a span and returns its duration in microseconds.
func (t *tracer) timed(name, parent string, req int, fn func()) float64 {
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.spans = append(t.spans, span{t.w.Name, name, req, parent, int64(start), int64(end)})
	return float64(end-start) / 1e3
}

func (t *tracer) ref(r request) cell { return t.refs[cellKey{r.Workload, t.w.Scale, r.Policy}] }

// check counts one ladder answer.
func (t *tracer) check(depth string, i int, ok bool) {
	t.out.Attempted++
	if !ok {
		t.out.fail(1, "%s: request %d (%s under %s) failed or differed from the reference table",
			depth, i, t.seq[i].Workload, t.seq[i].Policy)
	}
}

// expect counts one operation of the pass that is not a ladder request.
func (t *tracer) expect(what string, ok bool) {
	t.out.Attempted++
	if !ok {
		t.out.fail(1, "%s failed", what)
	}
}

func tracePass(o options, w *workload, refs table) (workloadOut, []span, error) {
	n := ladderRequests
	if o.smoke {
		n = smokeRequests
	}
	n = (n + w.blockSize() - 1) / w.blockSize() * w.blockSize()
	t := &tracer{
		o: o, w: w, refs: refs,
		seq:   newGenerator(o.seed, 0, w).take(n),
		epoch: time.Now(),
		spans: make([]span, 0, 8*n),
		vals:  make(map[string]float64),
		out:   workloadOut{Name: w.Name},
	}
	baseline := runtime.NumGoroutine()
	host0 := readHost()
	for _, step := range []func() error{t.ladder, t.tracerPass, t.saturated} {
		if err := step(); err != nil {
			return t.out, nil, err
		}
	}
	t.micro()
	t.out.teardown("trace pass", settle(baseline))
	host0.fill(t.vals, readHost())

	for _, def := range perLayer {
		v, ok := t.vals[def.Name]
		if !ok {
			return t.out, nil, fmt.Errorf("per-layer metric %s was not measured", def.Name)
		}
		t.out.Metrics = append(t.out.Metrics, newMetric(def, v))
	}
	return t.out, t.spans, nil
}

// reps is how often the trace pass repeats a set-up step or a
// microbenchmark before taking the median.
const reps = 5

// compileAndDeploy times the compile and the NVMe deploy of every
// workload of the mix, summed over the mix as a stack's set-up pays them,
// and returns each repetition's deployments.
func (t *tracer) compileAndDeploy() ([]map[string]*conduit.Deployment, error) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	var compileUS, deployUS []float64
	var all []map[string]*conduit.Deployment
	for rep := 0; rep < reps; rep++ {
		deps := make(map[string]*conduit.Deployment)
		var cus, dus, insts float64
		for _, name := range t.w.Mix {
			nw, ok := workloads.Find(name, t.w.Scale)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			var c *conduit.Compiled
			var dep *conduit.Deployment
			var err error
			cus += t.timed("compiler.compile", "", -1, func() { c, err = conduit.Compile(nw.Source, &cfg) })
			if err != nil {
				return nil, err
			}
			dus += t.timed("conduit.deploy", "", -1, func() { dep, err = sys.Deploy(c) })
			if err != nil {
				return nil, err
			}
			deps[nw.Name] = dep
			insts += float64(len(c.Prog.Insts))
		}
		compileUS, deployUS = append(compileUS, cus), append(deployUS, dus)
		all = append(all, deps)
		t.vals["compiler.insts"] = insts
	}
	t.vals["compiler.compile_us"], t.vals["conduit.deploy_us"] = median(compileUS), median(deployUS)
	return all, nil
}

// depth is one rung of the ladder: a way to serve ladder request i, and
// how long each request took that way. right runs after the timed call
// and reports whether its answer was the reference table's.
type depth struct {
	name, parent string
	serve        func(i int)
	right        func(i int) bool
	us           []float64
}

// ladder replays the sequence at five depths, from Deployment.Fork +
// ssd.Device.Run up to Router.Do. All five stacks stand at once and the
// replay goes block by block, every depth serving a block before the
// next block starts: the five timings of one request are then taken
// within milliseconds of each other, so the machine's drift cancels in
// the paired differences instead of landing on whichever layer was
// replayed during a slow phase.
func (t *tracer) ladder() error {
	deps, err := t.compileAndDeploy()
	if err != nil {
		return err
	}
	unpooled, pooled := deps[0], deps[1]
	for _, name := range sortedKeys(pooled) {
		pooled[name].Prefork(2)
		defer pooled[name].Close()
	}
	srv, err := newServer(t.w, serveOptions(1, nil))
	if err != nil {
		return err
	}
	defer func() { t.out.teardown("serve.do", closeServer(srv)) }()
	one, err := newFleet(t.w, 1)
	if err != nil {
		return err
	}
	defer func() { t.out.teardown("client.do", one.close()) }()
	two, err := newFleet(t.w, 2)
	if err != nil {
		return err
	}
	defer func() { t.out.teardown("router.do", two.close()) }()

	var rtt []float64
	for i := 0; i < t.o.samples(200); i++ {
		start := time.Now()
		_, err := one.clients[0].Snapshot()
		rtt = append(rtt, float64(time.Since(start))/1e3)
		t.expect("Client.Snapshot", err == nil)
	}
	t.vals["wire.rtt_floor_us"] = median(rtt)

	n := len(t.seq)
	fr := &forkRun{t: t, deps: unpooled, counters: make(map[string]float64)}
	forkUS, runUS := make([]float64, n), make([]float64, n)
	var (
		res      *conduit.RunResult
		resp     *conduit.Response
		wresp    wire.Response
		kept     []*conduit.Response
		servedBy string
	)
	served := make(map[string]float64)
	ref := func(i int) cell { return t.ref(t.seq[i]) }
	depths := []*depth{
		{name: "fork_run", parent: "deployment.run",
			serve: func(i int) { forkUS[i], runUS[i] = fr.serve(i, func() {}) },
			right: fr.right},
		{name: "deployment.run", parent: "serve.do",
			serve: func(i int) { res, err = pooled[t.seq[i].Workload].Run(t.seq[i].Policy) },
			right: func(i int) bool { return err == nil && ref(i).matches(res) }},
		{name: "serve.do", parent: "client.do",
			serve: func(i int) { resp, err = srv.Do(serveRequest(t.seq[i])) },
			right: func(i int) bool {
				if len(kept) < 200 && err == nil {
					kept = append(kept, resp)
				}
				return err == nil && ref(i).matches(conduit.ResultOf(resp))
			}},
		{name: "client.do", parent: "router.do",
			serve: func(i int) { wresp, err = one.clients[0].Do(wireRequest(t.seq[i])) },
			right: func(i int) bool { return err == nil && ref(i).matchesWire(wresp) }},
		{name: "router.do",
			serve: func(i int) { wresp, servedBy, err = two.rt.Do(wireRequest(t.seq[i])) },
			right: func(i int) bool {
				served[servedBy]++
				return err == nil && ref(i).matchesWire(wresp)
			}},
	}
	for _, d := range depths {
		d.us = make([]float64, n)
	}
	for b, block := 0, t.w.blockSize(); b < n; b += block {
		for _, d := range depths {
			for i := b; i < b+block; i++ {
				d.us[i] = t.timed(d.name, d.parent, i, func() { d.serve(i) })
				t.check(d.name, i, d.right(i))
			}
		}
	}

	parts, selfs, total, residual := ladderSelfs(
		[][]float64{depths[0].us, depths[1].us, depths[2].us, depths[3].us, depths[4].us},
		[][]float64{forkUS, runUS})
	do := depths[2].us
	t.vals["conduit.fork_us"], t.vals["ssd.run_us"] = parts[0], parts[1]
	t.vals["ladder.fork_run_self_us"] = selfs[0]
	t.vals["conduit.run_self_us"] = selfs[1]
	t.vals["serve.do_self_us"] = selfs[2]
	t.vals["target.do_self_us"] = selfs[3]
	t.vals["router.do_self_us"] = selfs[4]
	t.vals["router.do_us"] = total
	t.vals["ladder.residual_us"] = residual
	t.vals["serve.do_us"] = median(do)
	t.vals["serve.do_p99_us"], t.vals["serve.do_p999_us"] = percentile(do, 99), percentile(do, 99.9)
	t.vals["router.do_p99_us"] = percentile(depths[4].us, 99)
	t.vals["share.ssd_run_of_serve_do_pct"] = 100 * parts[1] / median(do)
	t.vals["share.fork_of_ssd_run_pct"] = 100 * parts[0] / parts[1]
	t.vals["share.wire_of_router_do_pct"] = 100 * (selfs[3] + selfs[4]) / total

	var hostRunUS float64
	for _, us := range runUS {
		hostRunUS += us
	}
	fr.report(hostRunUS)
	t.poolGet(pooled[t.seq[0].Workload].Pool())
	t.serverBooks(srv)
	t.codec(kept)
	st := two.rt.Stats()
	t.vals["router.attempts_per_req"] = float64(st.Attempts) / float64(st.Requests)
	t.vals["router.retries"], t.vals["router.refusals"] = float64(st.Retries), float64(st.Refusals)
	var busiest float64
	for _, name := range sortedKeys(served) {
		if served[name] > busiest {
			busiest = served[name]
		}
	}
	t.vals["router.home_share_pct"] = 100 * busiest / float64(n)
	return nil
}

// forkRun is the ladder's innermost depth: Deployment.Fork, then
// ssd.Device.Run on the fork, each in its own span. It also sums the
// simulated counts of what it ran.
type forkRun struct {
	t    *tracer
	deps map[string]*conduit.Deployment
	res  *conduit.RunResult // of the last serve; nil if it failed

	insts, simNS float64
	offloaded    [conduit.NumResources]float64
	counters     map[string]float64
}

// serve forks and runs ladder request i, calling between after the fork.
func (f *forkRun) serve(i int, between func()) (forkUS, runUS float64) {
	t, r := f.t, f.t.seq[i]
	var dev *ssd.Device
	var res *ssd.Result
	var err error
	f.res = nil
	forkUS = t.timed("conduit.fork", "fork_run", i, func() { dev, err = f.deps[r.Workload].Fork() })
	if err != nil {
		return forkUS, 0
	}
	between()
	runUS = t.timed("ssd.run", "fork_run", i, func() {
		dev.EnterComputationMode()
		res, err = dev.Run(devicePolicy(r.Policy))
		dev.ExitComputationMode()
	})
	if err == nil {
		f.res = &conduit.RunResult{
			Policy: r.Policy, Elapsed: res.Elapsed, ComputeEnergy: res.ComputeEnergy, MovementEnergy: res.MovementEnergy,
			InstLatencies: res.InstLatencies, Decisions: res.Decisions, OverheadTime: res.OverheadTime, Counters: res.Counters,
		}
	}
	return forkUS, runUS
}

// right checks the last serve's result as request i's and adds it to the
// sums.
func (f *forkRun) right(i int) bool {
	t, r := f.t, f.t.seq[i]
	if !t.ref(r).matches(f.res) {
		return false
	}
	c := cellOf(r.Workload, t.w.Scale, f.res)
	f.insts += float64(c.Insts)
	f.simNS += float64(c.ElapsedNS)
	for res, v := range c.Offloaded {
		f.offloaded[res] += float64(v)
	}
	for _, name := range sortedKeys(c.Counters) {
		f.counters[name] += float64(c.Counters[name])
	}
	return true
}

// report turns the sums into the exact simulated counts per request, and
// replays one balanced block with the heap counter read around each step
// for what a fork and a run allocate. Reading that counter stops the
// world, which is why the timed replay does not do it; the spans of this
// second replay are dropped.
func (f *forkRun) report(hostRunUS float64) {
	t, reqs := f.t, float64(len(f.t.seq))
	decisions := f.offloaded[0] + f.offloaded[1] + f.offloaded[2]
	t.vals["ssd.us_per_kinst"] = hostRunUS / (f.insts / 1000)
	t.vals["ssd.insts_per_req"] = f.insts / reqs
	t.vals["ssd.sim_us_per_req"] = f.simNS / 1e3 / reqs
	t.vals["offload.isp_pct"] = 100 * f.offloaded[0] / decisions
	t.vals["offload.pud_pct"] = 100 * f.offloaded[1] / decisions
	t.vals["offload.ifp_pct"] = 100 * f.offloaded[2] / decisions
	t.vals["dram.bbops_per_req"] = f.counters["dram.bbops"] / reqs
	t.vals["dram.kb_moved_per_req"] = f.counters["dram.bytes_moved"] / 1024 / reqs
	t.vals["flash.senses_per_req"] = f.counters["flash.senses"] / reqs
	t.vals["flash.kb_out_per_req"] = f.counters["flash.bytes_out"] / 1024 / reqs
	t.vals["ftl.map_hit_pct"] = 100 * f.counters["ftl.map_hits"] / (f.counters["ftl.map_hits"] + f.counters["ftl.map_misses"])
	t.vals["core.cycles_per_req"] = f.counters["core.cycles"] / reqs

	kept, block := len(t.spans), t.w.blockSize()
	var forkBytes, runBytes uint64
	var m0, m1, m2 runtime.MemStats
	for i := 0; i < block; i++ {
		runtime.ReadMemStats(&m0)
		f.serve(i, func() { runtime.ReadMemStats(&m1) })
		runtime.ReadMemStats(&m2)
		t.expect("fork and run for the allocation count", f.res != nil)
		forkBytes += m1.TotalAlloc - m0.TotalAlloc
		runBytes += m2.TotalAlloc - m1.TotalAlloc
	}
	t.spans = t.spans[:kept]
	t.vals["conduit.fork_alloc_kb"] = float64(forkBytes) / 1024 / float64(block)
	t.vals["ssd.run_alloc_kb"] = float64(runBytes) / 1024 / float64(block)
}

// poolGet times a DevicePool.Get that finds a ready fork.
func (t *tracer) poolGet(pool *conduit.DevicePool) {
	var get []float64
	for i := 0; i < t.o.samples(200); i++ {
		for pool.Stats().Idle == 0 {
			runtime.Gosched()
		}
		start := time.Now()
		_, err := pool.Get()
		get = append(get, float64(time.Since(start))/1e3)
		t.expect("DevicePool.Get", err == nil)
	}
	t.vals["pool.get_us"] = median(get)
}

// serverBooks times a metrics scrape and reads what the server's own
// books say about the replay.
func (t *tracer) serverBooks(srv *conduit.Server) {
	var scrape []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		srv.Metrics()
		scrape = append(scrape, float64(time.Since(start))/1e3)
	}
	t.vals["metrics.scrape_us"] = median(scrape)
	var hits, misses float64
	pools := srv.PoolStats()
	for _, name := range sortedKeys(pools) {
		hits += float64(pools[name].Hits)
		misses += float64(pools[name].Misses)
	}
	t.vals["pool.hit_pct"], t.vals["pool.misses"] = 100*hits/(hits+misses), misses
	total := srv.Total()
	t.vals["serve.shed"], t.vals["serve.expired"], t.vals["serve.coalesced"] =
		float64(total.Shed), float64(total.Expired), float64(total.Shared)
}

// codec times the wire projection and the codec on the replay's own
// requests and responses.
func (t *tracer) codec(kept []*conduit.Response) {
	var project []float64
	var resps []wire.Frame
	for i, resp := range kept {
		start := time.Now()
		wr := target.WireResponse(uint64(i+1), resp, nil)
		project = append(project, float64(time.Since(start))/1e3)
		resps = append(resps, wr)
	}
	t.vals["target.wire_response_us"] = median(project)
	reqs := make([]wire.Frame, len(resps))
	for i := range reqs {
		reqs[i] = wireRequest(t.seq[i])
	}
	t.vals["wire.encode_req_ns"], t.vals["wire.decode_req_ns"], t.vals["wire.req_bytes"] = t.codecCost(reqs)
	t.vals["wire.encode_resp_ns"], t.vals["wire.decode_resp_ns"], t.vals["wire.resp_bytes"] = t.codecCost(resps)
}

// codecCost is the median over reps of the mean time to encode and to
// decode one of frames, and their mean encoded size.
func (t *tracer) codecCost(frames []wire.Frame) (encodeNS, decodeNS, bytes float64) {
	var enc, dec []float64
	var buf []byte
	payloads := make([][]byte, len(frames))
	for i, f := range frames {
		payloads[i] = wire.Append(nil, f)
		bytes += float64(len(payloads[i]))
	}
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for _, f := range frames {
			buf = wire.Append(buf[:0], f)
		}
		enc = append(enc, float64(time.Since(start))/float64(len(frames)))
		start = time.Now()
		for _, p := range payloads {
			_, err := wire.Decode(p)
			t.expect("wire.Decode of an encoded frame", err == nil)
		}
		dec = append(dec, float64(time.Since(start))/float64(len(frames)))
	}
	return median(enc), median(dec), bytes / float64(len(frames))
}

// tracerPass arms the program's own request tracer. One replay with
// every request sampled yields the engine's queue wait from its spans;
// alternating short windows with the tracer sampling and absent yield
// what sampling costs in throughput.
func (t *tracer) tracerPass() error {
	sampling := &conduit.TraceOptions{
		SampleEvery: 1,
		Now:         func() int64 { return time.Now().UnixNano() },
		MaxTraces:   len(t.seq),
	}
	srv, err := newServer(t.w, serveOptions(1, sampling))
	if err != nil {
		return err
	}
	for i, r := range t.seq {
		resp, err := srv.Do(serveRequest(r))
		t.check("traced serve.do", i, err == nil && t.ref(r).matches(conduit.ResultOf(resp)))
	}
	t.vals["serve.queue_wait_us"] = median(queueWaits(srv.Tracer().Spans()))
	t.out.teardown("traced serve.do", closeServer(srv))

	lim, pairs := limit{d: seconds(t.o.seconds / 20)}, 3
	if t.o.smoke {
		lim, pairs = limit{n: smokeRequests}, 1
	}
	var off, on []float64
	for pair := 0; pair < pairs; pair++ {
		for _, tr := range []*conduit.TraceOptions{nil, sampling} {
			srv, err := newServer(t.w, serveOptions(1, tr))
			if err != nil {
				return err
			}
			r := &serveRunner{t.w, srv, newGenerator(t.o.seed, 0, t.w), t.refs}
			win := measure(r, lim)
			t.out.count("trace overhead window", win)
			t.out.teardown("trace overhead window", r.close())
			rate := win.good() / win.wall.Seconds()
			if tr == nil {
				off = append(off, rate)
			} else {
				on = append(on, rate)
			}
		}
	}
	t.vals["trace.overhead_pct"] = 100 * (1 - median(on)/median(off))
	return nil
}

// queueWaits is, per traced request, the wall time from the start of its
// serve.request span to the start of its serve.run span. spans are
// sorted by trace, so one request's spans are adjacent.
func queueWaits(spans []*trace.Span) []float64 {
	var waits []float64
	var id uint64
	var request, run int64
	flush := func() {
		if request != 0 && run != 0 {
			waits = append(waits, float64(run-request)/1e3)
		}
		request, run = 0, 0
	}
	for _, sp := range spans {
		if sp.TraceID != id {
			flush()
			id = sp.TraceID
		}
		switch sp.Name {
		case "serve.request":
			request = sp.WallStartNS
		case "serve.run":
			run = sp.WallStartNS
		}
	}
	flush()
	return waits
}

// saturated is one window with two clients and two engine workers: the
// throughput the serving stack reaches when the fork no longer hides on a
// spare core.
func (t *tracer) saturated() error {
	srv, err := newServer(t.w, serveOptions(2, nil))
	if err != nil {
		return err
	}
	lim := limit{d: seconds(t.o.seconds / 6)}
	if t.o.smoke {
		lim = limit{n: smokeRequests}
	}
	wins := make([]window, 2)
	var wg sync.WaitGroup
	for c := range wins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins[c] = measure(&serveRunner{t.w, srv, newGenerator(t.o.seed, c, t.w), t.refs}, lim)
		}()
	}
	wg.Wait()
	var good, wall float64
	for _, win := range wins {
		good += win.good()
		if s := win.wall.Seconds(); s > wall {
			wall = s
		}
		t.out.count("saturated window", win)
	}
	t.vals["serve.saturated_req_per_s"] = good / wall
	t.out.teardown("saturated window", closeServer(srv))
	return nil
}

// micro times the two engines on work that costs nothing: the simulation
// engine scheduling and draining 1e5 events, and the serve engine
// dispatching to a runner that returns at once.
func (t *tracer) micro() {
	events := t.o.samples(100000)
	var perEvent []float64
	for rep := 0; rep < reps; rep++ {
		e := sim.NewEngine()
		fired := 0
		start := time.Now()
		for i := 0; i < events; i++ {
			e.Schedule(sim.Time(i), func() { fired++ })
		}
		e.Run()
		perEvent = append(perEvent, float64(time.Since(start))/float64(events))
		t.expect("draining the sim engine", fired == events)
	}
	t.vals["sim.ns_per_event"] = median(perEvent)

	eng := serve.NewEngine(serve.RunnerFunc(func(string, string, *trace.Span) (serve.Outcome, error) {
		return serve.Outcome{}, nil
	}), serve.Config{Concurrency: 1})
	var noop []float64
	for i := 0; i < t.o.samples(2000); i++ {
		start := time.Now()
		_, err := eng.Do(serve.Request{Tenant: "tenant-00", Workload: "noop", Policy: "noop"})
		noop = append(noop, float64(time.Since(start))/1e3)
		t.expect("Engine.Do on a no-op runner", err == nil)
	}
	eng.Drain()
	t.vals["serve.engine_noop_us"] = median(noop)
}

// hostSample is the state of the machine and of the Go runtime at one
// instant; two of them bracket the trace pass.
type hostSample struct {
	at              time.Time
	steal, jiffies  float64 // /proc/stat, summed over CPUs
	pressureUS      float64 // /proc/pressure/cpu "some" total
	gcCPU, totalCPU float64 // seconds
	gcCycles        float64
}

func readHost() hostSample {
	h := hostSample{at: time.Now()}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		// cpu user nice system idle iowait irq softirq steal ...
		if f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0]); len(f) > 8 && f[0] == "cpu" {
			for i, s := range f[1:] {
				v, _ := strconv.ParseFloat(s, 64)
				if i < 8 { // guest time is already inside user
					h.jiffies += v
				}
				if i == 7 {
					h.steal = v
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/pressure/cpu"); err == nil {
		// some avg10=0.00 avg60=0.00 avg300=0.00 total=12345
		for _, f := range strings.Fields(strings.SplitN(string(data), "\n", 2)[0]) {
			if v, ok := strings.CutPrefix(f, "total="); ok {
				h.pressureUS, _ = strconv.ParseFloat(v, 64)
			}
		}
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	h.gcCPU, h.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	h.gcCycles = float64(samples[2].Value.Uint64())
	return h
}

// fill reports what changed between h and a later sample. A machine
// without /proc reads 0 for the two host figures.
func (h hostSample) fill(vals map[string]float64, end hostSample) {
	wall := end.at.Sub(h.at).Seconds()
	pct := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * part / whole
	}
	vals["gc.cpu_pct"] = pct(end.gcCPU-h.gcCPU, end.totalCPU-h.totalCPU)
	vals["gc.cycles_per_s"] = (end.gcCycles - h.gcCycles) / wall
	vals["host.steal_pct"] = pct(end.steal-h.steal, end.jiffies-h.jiffies)
	vals["host.cpu_pressure_pct"] = pct((end.pressureUS-h.pressureUS)/1e6, wall)
}

// sortedKeys returns m's keys in order, so that nothing the benchmark
// does depends on map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
