package conduit_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (docs/REPRO.md "Figure / table index" maps each to its paper
// artifact and command). Each bench prints its table once, then
// reports the wall-time of regenerating it:
//
//	go test -bench=. -benchmem
//
// benchScale sets the workload sizes; raise it (-ldflags is not needed,
// the experiments CLI accepts -scale) for longer, closer-to-paper streams.

import (
	"fmt"
	"testing"

	conduit "conduit"
	"conduit/internal/workloads"
)

const benchScale = 2

// benchHarness memoizes one Experiments instance per scale across benches
// so shared sweeps (Figs. 5/7a/7b/9) run once.
var benchHarness = map[int]*conduit.Experiments{}

func harness(scale int) *conduit.Experiments {
	if e, ok := benchHarness[scale]; ok {
		return e
	}
	e := conduit.NewExperiments(conduit.DefaultConfig(), scale)
	benchHarness[scale] = e
	return e
}

func benchTable(b *testing.B, fn func() (*conduit.Table, error)) {
	b.Helper()
	tab, err := fn()
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + tab.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Characteristics regenerates Table 3 (workload
// characteristics: vectorizable %, reuse, op mix).
func BenchmarkTable3Characteristics(b *testing.B) {
	benchTable(b, harness(benchScale).Table3)
}

// BenchmarkFig4CaseStudy regenerates Fig. 4 (the §3.1 case study: OSP vs
// ISP vs IFP vs naive IFP+ISP per workload class).
func BenchmarkFig4CaseStudy(b *testing.B) {
	benchTable(b, harness(benchScale).Fig4)
}

// BenchmarkFig5Motivation regenerates Fig. 5 (speedups of the prior
// techniques and Ideal over CPU, §3.2).
func BenchmarkFig5Motivation(b *testing.B) {
	benchTable(b, harness(benchScale).Fig5)
}

// BenchmarkFig7aSpeedup regenerates Fig. 7(a) (speedup over CPU with
// Conduit, §6.1).
func BenchmarkFig7aSpeedup(b *testing.B) {
	benchTable(b, harness(benchScale).Fig7a)
}

// BenchmarkFig7bEnergy regenerates Fig. 7(b) (energy normalized to CPU
// with the movement share, §6.2).
func BenchmarkFig7bEnergy(b *testing.B) {
	benchTable(b, harness(benchScale).Fig7b)
}

// BenchmarkFig8TailLatency regenerates Fig. 8 (p99/p99.99 latencies of
// Ideal/Conduit/BW/DM on LLaMA2 inference and jacobi-1d, §6.3).
func BenchmarkFig8TailLatency(b *testing.B) {
	benchTable(b, harness(benchScale).Fig8)
}

// BenchmarkFig9OffloadingDecisions regenerates Fig. 9 (fraction of
// instructions per computation resource, §6.4).
func BenchmarkFig9OffloadingDecisions(b *testing.B) {
	benchTable(b, harness(benchScale).Fig9)
}

// BenchmarkFig10Timeline regenerates Fig. 10 (the instruction-to-resource
// map over a window of LLaMA2 inference, §6.5).
func BenchmarkFig10Timeline(b *testing.B) {
	benchTable(b, func() (*conduit.Table, error) {
		return harness(benchScale).Fig10(12000)
	})
}

// BenchmarkOverheadAnalysis regenerates the §4.5 runtime-overhead numbers.
func BenchmarkOverheadAnalysis(b *testing.B) {
	benchTable(b, harness(benchScale).Overhead)
}

// BenchmarkAblationCostFeatures regenerates the cost-function feature
// ablation (docs/REPRO.md "Figure / table index", row cost-fn ablation).
func BenchmarkAblationCostFeatures(b *testing.B) {
	benchTable(b, harness(benchScale).AblationCostFeatures)
}

// BenchmarkAblationVectorWidth regenerates the vector-width/page-size
// sweep (the -force-vector-width design point of §4.3.1).
func BenchmarkAblationVectorWidth(b *testing.B) {
	benchTable(b, harness(benchScale).AblationVectorWidth)
}

// BenchmarkAblationChannels regenerates the flash-channel sweep.
func BenchmarkAblationChannels(b *testing.B) {
	benchTable(b, harness(benchScale).AblationChannels)
}

// --- Sweep engine ------------------------------------------------------------
//
// The two sweep benchmarks quantify the deploy-amortized, concurrent grid
// engine against the serial seed path on the same workload x policy grid:
//
//	go test -bench='Sweep' -benchtime=1x
//
// BenchmarkSweepSerialFullDeploy pays a complete NVMe deploy (per-page
// I/O writes + chunked fw-download + fw-commit) for every cell and runs
// cells one at a time. BenchmarkSweepGridSnapshot4Workers deploys each
// workload once, restores the post-deploy snapshot per policy, and
// executes cells on a 4-worker pool — the configuration the ISSUE's
// >=2x acceptance bar refers to. Results are byte-identical across the
// two paths (see TestParallelGridMatchesSerialSweep).

// sweepGridPolicies is the full Fig. 7 lineup the grid benches sweep.
var sweepGridPolicies = conduit.Policies()

func BenchmarkSweepSerialFullDeploy(b *testing.B) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	e := conduit.NewExperiments(cfg, 1)
	comp := make([]*conduit.Compiled, 0, len(e.Workloads()))
	for _, w := range e.Workloads() {
		c, err := compileWorkload(&cfg, w, 1)
		if err != nil {
			b.Fatal(err)
		}
		comp = append(comp, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range comp {
			for _, p := range sweepGridPolicies {
				if _, err := sys.RunCompiled(c, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkSweepGridSnapshot4Workers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// A fresh harness per iteration: the memo cache would otherwise
		// turn later iterations into lookups.
		e := conduit.NewExperiments(conduit.DefaultConfig(), 1)
		e.SetWorkers(4)
		if _, err := e.RunGrid(e.Workloads(), sweepGridPolicies); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGridCold is the in-tree mirror of cmd/conduit-bench's
// sweep_grid: all six scale-1 workloads by every policy on a fresh harness
// per iteration with one worker, so each iteration pays the compile, the
// NVMe deploy, the host baselines and Ideal. `make prof-run
// BENCH=SweepGridCold` profiles it.
func BenchmarkSweepGridCold(b *testing.B) {
	names := workloads.Names()
	for i := 0; i < b.N; i++ {
		e := conduit.NewExperiments(conduit.DefaultConfig(), 1)
		e.SetWorkers(1)
		if _, err := e.RunGrid(names, sweepGridPolicies); err != nil {
			b.Fatal(err)
		}
	}
}

func compileWorkload(cfg *conduit.Config, name string, scale int) (*conduit.Compiled, error) {
	w, ok := workloads.Find(name, scale)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return conduit.Compile(w.Source, cfg)
}

// BenchmarkDeviceRunHot measures one full Conduit-policy device run at
// benchScale with the deploy amortized away (fork-per-iteration from a
// post-deploy master): the data-plane hot path the kernel and
// buffer-reuse work targets, free of NVMe-deploy noise. Run with
// -benchmem: allocs/op is the page-churn regression signal.
func BenchmarkDeviceRunHot(b *testing.B) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := compileWorkload(&cfg, "LlaMA2 Inference", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Run("Conduit"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceRunMix is the in-tree mirror of cmd/conduit-bench's
// serve_heavy request space: AES, LLaMA2 inference and LLM training at
// scale 2 under Conduit, DM-Offloading and BW-Offloading, one
// Deployment.Run each per iteration. `make prof-run` profiles it.
func BenchmarkDeviceRunMix(b *testing.B) {
	benchRunMix(b, conduit.NewSystem(conduit.DefaultConfig()), 2)
}

// BenchmarkReferenceRunMix is the same mix on the functional data plane
// (NewReferenceSystem: every instruction computes its page payloads through
// internal/vecmath) at scale 1 — the end-to-end number of the layer no
// BENCHMARK.json workload reaches, since they all run timing-only.
// `make prof-run BENCH=ReferenceRunMix` profiles it.
func BenchmarkReferenceRunMix(b *testing.B) {
	benchRunMix(b, conduit.NewReferenceSystem(conduit.DefaultConfig()), 1)
}

func benchRunMix(b *testing.B, sys *conduit.System, scale int) {
	cfg := conduit.DefaultConfig() // sys's, but for TimingOnly, which Compile ignores
	var deps []*conduit.Deployment
	for _, name := range []string{"AES", "LlaMA2 Inference", "LLM Training"} {
		c, err := compileWorkload(&cfg, name, scale)
		if err != nil {
			b.Fatal(err)
		}
		dep, err := sys.Deploy(c)
		if err != nil {
			b.Fatal(err)
		}
		deps = append(deps, dep)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dep := range deps {
			for _, policy := range []string{"Conduit", "DM-Offloading", "BW-Offloading"} {
				if _, err := dep.Run(policy); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkOffloaderDecision measures the raw per-instruction offloading
// path (feature collection + policy + transformation) in host time —
// the engineering cost of the runtime half.
func BenchmarkOffloaderDecision(b *testing.B) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	src := quickstartSource(8 * 16384)
	c, err := conduit.Compile(src, &cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunCompiled(c, "Conduit"); err != nil {
			b.Fatal(err)
		}
	}
}
