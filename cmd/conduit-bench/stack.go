package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	conduit "conduit"
	"conduit/internal/router"
	"conduit/internal/target"
	"conduit/internal/wire"
	"conduit/internal/workloads"
)

// serveOptions is the load shape every serving stack shares: a prefork
// pool of two, and coalescing and memoization off so that every request
// executes. The timed windows run one engine worker per server.
func serveOptions(concurrency int, tr *conduit.TraceOptions) conduit.ServeOptions {
	return conduit.ServeOptions{Concurrency: concurrency, Prefork: 2, Trace: tr}
}

// newServer builds w's in-process serving stack: sources, compile, NVMe
// deploy and prefork for every workload of the mix.
func newServer(w *workload, opts conduit.ServeOptions) (*conduit.Server, error) {
	srv := conduit.NewServer(conduit.DefaultConfig(), opts)
	for _, name := range w.Mix {
		nw, ok := workloads.Find(name, w.Scale)
		if !ok {
			srv.Drain()
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if err := srv.Register(nw.Name, nw.Source); err != nil {
			srv.Drain()
			return nil, fmt.Errorf("register %s: %w", nw.Name, err)
		}
	}
	return srv, nil
}

// closeServer drains srv and reports every pool that is not closed and
// empty afterwards.
func closeServer(srv *conduit.Server) []string {
	srv.Drain()
	pools := srv.PoolStats()
	var leaks []string
	for name, ps := range pools {
		if !ps.Closed || ps.Idle != 0 {
			leaks = append(leaks, fmt.Sprintf("pool %s after drain: closed=%v idle=%d", name, ps.Closed, ps.Idle))
		}
	}
	sort.Strings(leaks)
	return leaks
}

// fleet is n targets started inside this process, each dialled over real
// loopback TCP, behind a router with the shipped defaults.
type fleet struct {
	targets []*target.Server
	served  sync.WaitGroup
	clients []*router.Client
	rt      *router.Router
}

func newFleet(w *workload, n int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		t, err := target.New("127.0.0.1:0", target.Options{
			Name:  fmt.Sprintf("t%d", i),
			Scale: w.Scale,
			Mix:   w.Mix,
			Serve: serveOptions(1, nil),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.targets = append(f.targets, t)
		f.served.Add(1)
		go func() {
			defer f.served.Done()
			t.Serve()
		}()
		c, err := router.Dial(t.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	rt, err := router.New(f.clients, router.Options{
		Retries:          3,
		BreakerThreshold: 4,
		BreakerCooldown:  8,
		Clock:            router.Clock{Now: time.Now, After: time.After},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	return f, nil
}

// close drains every target over the wire, waits for their accept loops
// to return, and reports targets that did not acknowledge and pools that
// are not closed and empty.
func (f *fleet) close() []string {
	var leaks []string
	if f.rt != nil {
		acks := f.rt.DrainAll()
		if len(acks) != len(f.targets) {
			leaks = append(leaks, fmt.Sprintf("%d of %d targets acknowledged the drain", len(acks), len(f.targets)))
		}
		for _, a := range acks {
			for _, p := range a.Ack.Pools {
				if !p.Closed || p.Idle != 0 {
					leaks = append(leaks, fmt.Sprintf("target %s pool %s after drain: closed=%v idle=%d", a.Target, p.Name, p.Closed, p.Idle))
				}
			}
		}
	}
	for _, t := range f.targets {
		t.Drain() // no-op after a wire drain; the teardown of a half-built fleet
	}
	for _, c := range f.clients {
		c.Close()
	}
	f.served.Wait()
	return leaks
}

// serveRequest is r as Server.Do takes it.
func serveRequest(r request) conduit.Request {
	return conduit.Request{Tenant: r.Tenant, Workload: r.Workload, Policy: r.Policy}
}

// wireRequest is r as it crosses the wire.
func wireRequest(r request) wire.Request {
	return wire.Request{Tenant: r.Tenant, Workload: r.Workload, Policy: r.Policy}
}

// runner issues a workload's work one unit at a time, checking every
// answer against the reference table.
type runner interface {
	// issue performs the next unit and reports the caller-observed
	// latency of the call into the program, the results it produced and
	// how many of them were wrong.
	issue() (lat time.Duration, done, bad int)
	// close tears the stack down and reports what it leaked.
	close() []string
}

type serveRunner struct {
	w    *workload
	srv  *conduit.Server
	gen  *generator
	refs table
}

func (s *serveRunner) issue() (time.Duration, int, int) {
	r := s.gen.next()
	req := serveRequest(r)
	start := time.Now()
	resp, err := s.srv.Do(req)
	lat := time.Since(start)
	if err != nil || !s.refs[cellKey{r.Workload, s.w.Scale, r.Policy}].matches(conduit.ResultOf(resp)) {
		return lat, 1, 1
	}
	return lat, 1, 0
}

func (s *serveRunner) close() []string { return closeServer(s.srv) }

type fleetRunner struct {
	w    *workload
	f    *fleet
	gen  *generator
	refs table
}

func (s *fleetRunner) issue() (time.Duration, int, int) {
	r := s.gen.next()
	req := wireRequest(r)
	start := time.Now()
	resp, _, err := s.f.rt.Do(req)
	lat := time.Since(start)
	if err != nil || !s.refs[cellKey{r.Workload, s.w.Scale, r.Policy}].matchesWire(resp) {
		return lat, 1, 1
	}
	return lat, 1, 0
}

func (s *fleetRunner) close() []string { return s.f.close() }

// sweepRunner's unit is one RunGrid call of 60 cells on a fresh harness:
// the harness memoizes, so only a fresh one compiles, deploys and runs.
type sweepRunner struct {
	w    *workload
	gen  *generator
	refs table
}

func (s *sweepRunner) issue() (time.Duration, int, int) {
	rows, cols := s.gen.grid()
	cells := len(rows) * len(cols)
	start := time.Now()
	e := conduit.NewExperiments(conduit.DefaultConfig(), s.w.Scale)
	e.SetWorkers(1)
	out, err := e.RunGrid(rows, cols)
	lat := time.Since(start)
	if err != nil {
		return lat, cells, cells
	}
	bad := 0
	for i, row := range out {
		for j, r := range row {
			if !s.refs[cellKey{rows[i], s.w.Scale, cols[j]}].matches(r) {
				bad++
			}
		}
	}
	return lat, cells, bad
}

func (s *sweepRunner) close() []string { return nil }

// setup builds w's stack for one round: everything that happens before
// the first request. The sweep harness builds lazily inside its first
// grid, so that first grid is sweep_grid's set-up; its answers are
// checked like any other.
func setup(w *workload, seed uint64, refs table) (r runner, done, bad int, err error) {
	gen := newGenerator(seed, 0, w)
	switch w.Kind {
	case kindServe:
		srv, err := newServer(w, serveOptions(1, nil))
		if err != nil {
			return nil, 0, 0, err
		}
		return &serveRunner{w, srv, gen, refs}, 0, 0, nil
	case kindFleet:
		f, err := newFleet(w, 2)
		if err != nil {
			return nil, 0, 0, err
		}
		return &fleetRunner{w, f, gen, refs}, 0, 0, nil
	default:
		s := &sweepRunner{w, gen, refs}
		_, done, bad := s.issue()
		return s, done, bad, nil
	}
}

// limit ends a window after d, or once n results are in when n > 0 (the
// smoke path, whose length must not depend on the machine), or at the
// earlier of the two when both are set.
type limit struct {
	d time.Duration
	n int
}

// seconds is s as a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (l limit) reached(start time.Time, done int) bool {
	if l.n > 0 && done >= l.n {
		return true
	}
	return (l.n == 0 || l.d > 0) && time.Since(start) >= l.d
}

// window is what one timed window observed. kernelMS holds the
// calibration kernel's times when the window was cut into calibrated
// slices (measureCalibrated), and is empty otherwise.
type window struct {
	done, bad  int
	latMS      []float64
	wall, cpu  time.Duration
	allocBytes uint64
	kernelMS   []float64
}

func newWindow() window { return window{latMS: make([]float64, 0, 1<<17)} }

// good is the number of correct completions.
func (w window) good() float64 { return float64(w.done - w.bad) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs r closed-loop from the calling goroutine until lim.
func measure(r runner, lim limit) window {
	w := newWindow()
	w.run(r, lim)
	return w
}

// run issues r's work from the calling goroutine until lim and adds what
// it observed to w. CPU time and allocation are the whole process's over
// that time: the garbage collector, the pool refillers and in-process
// targets are what an operator pays for a request too.
func (w *window) run(r runner, lim limit) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := cpuTime(), time.Now()
	for issued := 0; !lim.reached(start, issued); {
		lat, done, bad := r.issue()
		issued += done
		w.done += done
		w.bad += bad
		w.latMS = append(w.latMS, float64(lat)/1e6)
	}
	w.wall += time.Since(start)
	w.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	w.allocBytes += m1.TotalAlloc - m0.TotalAlloc
}

// settle waits for the goroutine count to return to baseline after a
// teardown; goroutines unwind asynchronously once their connection or
// channel closes, so a grace period separates a leak from a race. It is
// long because a loaded machine under the race detector unwinds slowly,
// and costs nothing when nothing leaked.
func settle(baseline int) []string {
	deadline := time.Now().Add(20 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return []string{fmt.Sprintf("goroutines after teardown: %d, baseline %d", runtime.NumGoroutine(), baseline)}
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
