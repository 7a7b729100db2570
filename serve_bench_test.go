package conduit_test

// The serve benchmarks quantify the serving engine against the naive
// alternative on the same request stream:
//
//	go test -bench=Serve -benchtime=1x
//
// BenchmarkServeNaivePerRequestDeploy answers every request the way the
// seed code could: a full NVMe deploy (per-page I/O writes + chunked
// fw-download + fw-commit) followed by the run, one request at a time.
// BenchmarkServePooled serves the identical stream through a Server:
// one deploy per workload ever, requests dispatched concurrently over
// pre-forked pool-managed clones. Responses are byte-identical across the
// two paths (see TestServeConcurrentMatchesSerial).

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	conduit "conduit"
	"conduit/internal/router"
	"conduit/internal/target"
	"conduit/internal/wire"
)

// servePolicies is the request mix both serve benchmarks draw from.
var servePolicies = []string{"Conduit", "DM-Offloading", "BW-Offloading"}

// servingSource models the shape request serving exists for: a large
// resident dataset (deployed to the drive once) against which each request
// runs a comparatively small kernel. The naive path re-ships the whole
// dataset over the NVMe deploy path on every request; the served path
// ships it once and restores pool-managed clones.
func servingSource(datasetPages, kernelLanes int) *conduit.Source {
	const lanes = 16 << 10
	data := make([]byte, datasetPages*lanes)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	return &conduit.Source{
		Name: "serving",
		Arrays: []*conduit.Array{
			{Name: "dataset", Elem: 1, Len: len(data), Input: true, Fill: conduit.Bytes(data)},
			{Name: "out", Elem: 1, Len: kernelLanes},
		},
		Stmts: []conduit.Stmt{
			conduit.Loop{Name: "probe", N: kernelLanes, Body: []conduit.Assign{
				{Target: "out", Value: conduit.Bin{Op: conduit.OpXor,
					X: conduit.Bin{Op: conduit.OpMul, X: conduit.Ref{Name: "dataset"}, Y: conduit.Lit{Value: 3}},
					Y: conduit.Lit{Value: 0xA5}}},
			}},
		},
	}
}

func BenchmarkServeNaivePerRequestDeploy(b *testing.B) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(servingSource(64, 2*16384), &cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunCompiled(c, servePolicies[i%len(servePolicies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeOpenLoopSubmit measures the open-loop serving path at
// saturation: b.N requests submitted back-to-back without pacing (the
// queue is sized so nothing sheds), then every response collected. It is
// the per-request cost ceiling of the Submit/notify/histogram-accounting
// machinery on top of the same pooled execution BenchmarkServePooled
// measures closed-loop.
func BenchmarkServeOpenLoopSubmit(b *testing.B) {
	cfg := conduit.DefaultConfig()
	c, err := conduit.Compile(servingSource(64, 2*16384), &cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Waves keep the submitted-but-undrained window under the queue
	// depth, so saturation never trips the shedding this benchmark is
	// not measuring.
	const wave = 4096
	srv := conduit.NewServer(cfg, conduit.ServeOptions{
		Concurrency: 2, QueueDepth: 2 * wave, Prefork: 2,
	})
	if err := srv.RegisterCompiled("serving", c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	chans := make([]<-chan *conduit.Response, 0, wave)
	for submitted := 0; submitted < b.N; {
		n := wave
		if rest := b.N - submitted; rest < n {
			n = rest
		}
		chans = chans[:0]
		for i := 0; i < n; i++ {
			ch, err := submit(srv, conduit.Request{
				Tenant:   "bench",
				Workload: "serving",
				Policy:   servePolicies[(submitted+i)%len(servePolicies)],
			})
			if err != nil {
				b.Fatal(err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			if resp := <-ch; resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
		submitted += n
	}
	b.StopTimer()
	srv.Drain()
}

// BenchmarkServeFaultFree is the zero-overhead pin for the fault-tolerant
// dispatch path: the same open-loop stream as BenchmarkServeOpenLoopSubmit,
// but served through a Server with the whole chaos and recovery stack
// enabled at zero injection rate. The resilient dispatcher sits on the hot
// path for every request (draws from the injector, consults the breaker),
// so this bench is what keeps that tax at noise level — compare against
// BenchmarkServeOpenLoopSubmit.
func BenchmarkServeFaultFree(b *testing.B) {
	cfg := conduit.DefaultConfig()
	c, err := conduit.Compile(servingSource(64, 2*16384), &cfg)
	if err != nil {
		b.Fatal(err)
	}
	const wave = 4096
	faults := conduit.FaultConfig{Seed: 7} // all rates zero
	srv := conduit.NewServer(cfg, conduit.ServeOptions{
		Concurrency: 2, QueueDepth: 2 * wave, Prefork: 2,
		Faults: &faults,
		Recovery: conduit.RecoveryOptions{
			MaxAttempts:      3,
			HedgeThreshold:   8,
			BreakerThreshold: 4,
			FallbackPolicy:   "CPU",
		},
	})
	if err := srv.RegisterCompiled("serving", c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	chans := make([]<-chan *conduit.Response, 0, wave)
	for submitted := 0; submitted < b.N; {
		n := wave
		if rest := b.N - submitted; rest < n {
			n = rest
		}
		chans = chans[:0]
		for i := 0; i < n; i++ {
			ch, err := submit(srv, conduit.Request{
				Tenant:   "bench",
				Workload: "serving",
				Policy:   servePolicies[(submitted+i)%len(servePolicies)],
			})
			if err != nil {
				b.Fatal(err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			if resp := <-ch; resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
		submitted += n
	}
	b.StopTimer()
	srv.Drain()
}

// BenchmarkServeTraceOff is the zero-overhead pin for the tracing seam:
// the same open-loop stream as BenchmarkServeOpenLoopSubmit, served
// through a Server with a tracer armed but sampling off — the
// configuration every fleet target runs in. The disabled path is one
// sampling check at admission; compare against
// BenchmarkServeOpenLoopSubmit to hold it at noise.
func BenchmarkServeTraceOff(b *testing.B) {
	cfg := conduit.DefaultConfig()
	c, err := conduit.Compile(servingSource(64, 2*16384), &cfg)
	if err != nil {
		b.Fatal(err)
	}
	const wave = 4096
	srv := conduit.NewServer(cfg, conduit.ServeOptions{
		Concurrency: 2, QueueDepth: 2 * wave, Prefork: 2,
		Trace: &conduit.TraceOptions{},
	})
	if err := srv.RegisterCompiled("serving", c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	chans := make([]<-chan *conduit.Response, 0, wave)
	for submitted := 0; submitted < b.N; {
		n := wave
		if rest := b.N - submitted; rest < n {
			n = rest
		}
		chans = chans[:0]
		for i := 0; i < n; i++ {
			ch, err := submit(srv, conduit.Request{
				Tenant:   "bench",
				Workload: "serving",
				Policy:   servePolicies[(submitted+i)%len(servePolicies)],
			})
			if err != nil {
				b.Fatal(err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			if resp := <-ch; resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
		submitted += n
	}
	b.StopTimer()
	srv.Drain()
}

func BenchmarkServePooled(b *testing.B) {
	cfg := conduit.DefaultConfig()
	c, err := conduit.Compile(servingSource(64, 2*16384), &cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := conduit.NewServer(cfg, conduit.ServeOptions{Concurrency: 2, Prefork: 2})
	if err := srv.RegisterCompiled("serving", c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := conduit.Request{
			Tenant:   "bench",
			Workload: "serving",
			Policy:   servePolicies[i%len(servePolicies)],
		}
		if _, err := srv.Do(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	srv.Drain()
}

// BenchmarkServeLightMix is the in-tree mirror of cmd/conduit-bench's
// serve_light request space: jacobi-1d, XOR Filter and heat-3d at scale 1
// under Conduit, DM-Offloading and BW-Offloading, one Server.Do each per
// iteration, one client, Concurrency 1, Prefork 2 — the path on which a
// fork costs more than the run it feeds. Run with -benchmem: B/op is nine
// requests' worth.
func BenchmarkServeLightMix(b *testing.B) {
	benchServeMix(b, 1, "jacobi-1d", "XOR Filter", "heat-3d")
}

// BenchmarkServeHeavyMix is the same for serve_heavy: AES, LLaMA2 inference
// and LLM training at scale 2 through Server.Do, where the device run is
// most of a request. Unlike BenchmarkDeviceRunMix, which goes through
// unpooled Deployment.Run and so pays a clone per run, its B/op is only
// what the requests themselves allocate; `make prof-alloc
// BENCH=ServeHeavyMix` says where.
func BenchmarkServeHeavyMix(b *testing.B) {
	benchServeMix(b, 2, "AES", "LlaMA2 Inference", "LLM Training")
}

// BenchmarkServeLightSaturated is serve_light at saturation: 2×GOMAXPROCS
// closed-loop clients each send the nine-request mix through Server.Do to
// a server of Concurrency GOMAXPROCS and Prefork 2. Beside the wall time
// it reports the process CPU per op (cpu-ns/op) and the share of forks
// taken from the ready list (hit_pct) once the server is saturated.
func BenchmarkServeLightSaturated(b *testing.B) {
	mix := []string{"jacobi-1d", "XOR Filter", "heat-3d"}
	srv := conduit.NewServer(conduit.DefaultConfig(), conduit.ServeOptions{Concurrency: runtime.GOMAXPROCS(0), Prefork: 2})
	defer srv.Drain()
	for _, name := range mix {
		if err := srv.RegisterWorkload(name, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b.ReportAllocs()
	b.SetParallelism(2)
	start := cpu()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for _, name := range mix {
				for _, policy := range servePolicies {
					if _, err := srv.Do(conduit.Request{Tenant: "bench", Workload: name, Policy: policy}); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(cpu()-start)/float64(b.N), "cpu-ns/op")
	var hits, forks int64
	for _, ps := range srv.PoolStats() {
		hits, forks = hits+ps.Hits, forks+ps.Hits+ps.Misses
	}
	b.ReportMetric(100*float64(hits)/float64(forks), "hit_pct")
}

func benchServeMix(b *testing.B, scale int, mix ...string) {
	srv := conduit.NewServer(conduit.DefaultConfig(), conduit.ServeOptions{Concurrency: 1, Prefork: 2})
	defer srv.Drain()
	for _, name := range mix {
		if err := srv.RegisterWorkload(name, scale, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range mix {
			for _, policy := range servePolicies {
				if _, err := srv.Do(conduit.Request{Tenant: "bench", Workload: name, Policy: policy}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkRoutedLightMix is BenchmarkServeLightMix through the wire tier,
// the in-tree mirror of cmd/conduit-bench's fleet_light: the same nine
// requests per iteration via Router.Do to two targets in this process
// over loopback TCP, each serving at Concurrency 1 with Prefork 2. What it
// costs beyond BenchmarkServeLightMix is the router, the client, the
// sockets, the target's reader, and both codecs: one caller at a time
// finds its one-slot target idle, so the target's reader serves it and
// writes the response itself, and neither an engine worker nor the
// connection's writer wakes. `make prof-run BENCH=RoutedLightMix`
// profiles it.
func BenchmarkRoutedLightMix(b *testing.B) {
	mix := []string{"jacobi-1d", "XOR Filter", "heat-3d"}
	var clients []*router.Client
	for i := 0; i < 2; i++ {
		t, err := target.New("127.0.0.1:0", target.Options{Name: fmt.Sprint("t", i), Mix: mix,
			Serve: conduit.ServeOptions{Concurrency: 1, Prefork: 2}})
		if err != nil {
			b.Fatal(err)
		}
		served := make(chan struct{})
		go func() { t.Serve(); close(served) }()
		defer func() { t.Drain(); <-served }()
		c, err := router.Dial(t.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		clients = append(clients, c)
	}
	rt, err := router.New(clients, router.Options{Retries: 3, BreakerThreshold: 4, BreakerCooldown: 8,
		Clock: router.Clock{Now: time.Now, After: time.After}})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range mix {
			for _, policy := range servePolicies {
				resp, _, err := rt.Do(wire.Request{Tenant: "bench", Workload: name, Policy: policy})
				if err != nil || resp.Code != wire.CodeOK {
					b.Fatalf("%s/%s: %v %+v", name, policy, err, resp)
				}
			}
		}
	}
}
