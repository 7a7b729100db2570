package workloads

import (
	"testing"

	"conduit/internal/compiler"
	"conduit/internal/config"
)

func compileAll(t *testing.T, scale int) map[string]*compiler.Compiled {
	t.Helper()
	cfg := config.TestScale()
	out := map[string]*compiler.Compiled{}
	for _, w := range All(scale) {
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		out[w.Name] = c
	}
	return out
}

func TestAllWorkloadsCompile(t *testing.T) {
	compiled := compileAll(t, 1)
	if len(compiled) != 6 {
		t.Fatalf("want 6 workloads, got %d", len(compiled))
	}
	for name, c := range compiled {
		if len(c.Prog.Insts) == 0 {
			t.Errorf("%s produced an empty program", name)
		}
		if err := c.Prog.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", name, err)
		}
	}
}

func TestScaleGrowsInstructionStream(t *testing.T) {
	small := compileAll(t, 1)
	big := compileAll(t, 2)
	for name := range small {
		if len(big[name].Prog.Insts) <= len(small[name].Prog.Insts) {
			t.Errorf("%s: scale 2 (%d insts) not larger than scale 1 (%d)",
				name, len(big[name].Prog.Insts), len(small[name].Prog.Insts))
		}
	}
}

// TestTable3Shape checks the qualitative structure of Table 3: relative
// vectorization coverage, reuse ordering, and the dominant op class per
// workload. Absolute numbers are reported by the Table 3 bench.
func TestTable3Shape(t *testing.T) {
	compiled := compileAll(t, 1)
	ch := map[string]Characteristics{}
	for name, c := range compiled {
		ch[name] = Characterize(name, c)
	}

	// Vectorizable coverage: stencils > LLMs > AES > XOR filter.
	if !(ch["heat-3d"].VectorizablePct > 90 && ch["jacobi-1d"].VectorizablePct > 90) {
		t.Errorf("stencils should vectorize >90%%: heat=%v jacobi=%v",
			ch["heat-3d"].VectorizablePct, ch["jacobi-1d"].VectorizablePct)
	}
	if ch["XOR Filter"].VectorizablePct > 30 {
		t.Errorf("XOR filter should barely vectorize, got %v%%", ch["XOR Filter"].VectorizablePct)
	}
	aes := ch["AES"].VectorizablePct
	if aes < 40 || aes > 90 {
		t.Errorf("AES vectorizable%% = %v, want mid-range (Table 3: 65%%)", aes)
	}
	for _, llm := range []string{"LlaMA2 Inference", "LLM Training"} {
		v := ch[llm].VectorizablePct
		if v < 40 || v > 95 {
			t.Errorf("%s vectorizable%% = %v, want Table-3-like mid/high range", llm, v)
		}
	}

	// Op mix: AES is bitwise (low) dominated with no high-latency ops;
	// the stencils and LLMs have no low-latency ops to speak of and a
	// substantial multiply share; training is more add-dominated than
	// inference.
	if ch["AES"].LowPct < 60 {
		t.Errorf("AES low-latency share = %v%%, want dominant", ch["AES"].LowPct)
	}
	if ch["AES"].HighPct > 5 {
		t.Errorf("AES high-latency share = %v%%, want ~0", ch["AES"].HighPct)
	}
	for _, name := range []string{"heat-3d", "jacobi-1d"} {
		if ch[name].HighPct < 20 {
			t.Errorf("%s multiply share = %v%%, want substantial", name, ch[name].HighPct)
		}
		if ch[name].MediumPct < ch[name].HighPct {
			t.Errorf("%s should be add-dominated over mul", name)
		}
	}
	if ch["LlaMA2 Inference"].HighPct <= ch["LLM Training"].HighPct {
		t.Errorf("inference (%v%%) should be more multiply-heavy than training (%v%%)",
			ch["LlaMA2 Inference"].HighPct, ch["LLM Training"].HighPct)
	}

	// Reuse: AES and heat-3d high; XOR filter and LLaMA inference low.
	if ch["AES"].AvgReuse < 2*ch["XOR Filter"].AvgReuse {
		t.Errorf("AES reuse (%v) should far exceed XOR filter (%v)",
			ch["AES"].AvgReuse, ch["XOR Filter"].AvgReuse)
	}
	if ch["heat-3d"].AvgReuse <= ch["LlaMA2 Inference"].AvgReuse {
		t.Errorf("heat-3d reuse (%v) should exceed LLaMA2 inference (%v)",
			ch["heat-3d"].AvgReuse, ch["LlaMA2 Inference"].AvgReuse)
	}
	if ch["LLM Training"].AvgReuse <= ch["LlaMA2 Inference"].AvgReuse {
		t.Errorf("training reuse (%v) should exceed inference (%v)",
			ch["LLM Training"].AvgReuse, ch["LlaMA2 Inference"].AvgReuse)
	}
}

func TestWorkloadSemanticEquivalence(t *testing.T) {
	// Every workload's vectorized program must match its scalar
	// interpretation (spot-checked through the compiler test helpers is
	// not enough: these sources use every language feature).
	cfg := config.TestScale()
	for _, w := range All(1) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			want, err := compiler.Interpret(w.Source, cfg.SSD.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			// Execute the IR functionally.
			got := execIR(t, c, cfg.SSD.PageSize)
			for _, arr := range w.Source.Arrays {
				pages := c.ArrayPages(arr.Name)
				for i, p := range pages {
					gp, ok := got[p]
					if !ok {
						gp = make([]byte, cfg.SSD.PageSize)
						c.InputPage(p, gp)
					}
					wp := want[arr.Name][i*cfg.SSD.PageSize : (i+1)*cfg.SSD.PageSize]
					for j := range wp {
						if gp[j] != wp[j] {
							t.Fatalf("array %q page %d byte %d: %d != %d",
								arr.Name, i, j, gp[j], wp[j])
						}
					}
				}
			}
		})
	}
}

func TestCharacterizeCountsInstructions(t *testing.T) {
	cfg := config.TestScale()
	w := All(1)[0]
	c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ch := Characterize(w.Name, c)
	if ch.Instructions != len(c.Prog.Insts) {
		t.Fatal("instruction count mismatch")
	}
	if ch.LowPct+ch.MediumPct+ch.HighPct < 99.9 {
		t.Fatalf("op mix sums to %v", ch.LowPct+ch.MediumPct+ch.HighPct)
	}
}

// TestPartitionMetadata checks the shardability rules: every evaluated
// workload's declared arrays split into a non-empty partitionable set,
// broadcast arrays match the documented structures (key schedules, filter
// banks, transformer weights), and unknown workloads partition everything.
func TestPartitionMetadata(t *testing.T) {
	wantBroadcast := map[string]func(string) bool{
		"AES":              func(a string) bool { return len(a) > 2 && a[:2] == "rk" },
		"XOR Filter":       func(a string) bool { return len(a) > 4 && a[:4] == "bank" },
		"heat-3d":          func(string) bool { return false },
		"jacobi-1d":        func(string) bool { return false },
		"LlaMA2 Inference": func(a string) bool { return a[0] == 'w' && a != "x" },
		"LLM Training":     func(a string) bool { return a[0] == 'w' },
	}
	for _, w := range All(1) {
		part := Partition(w.Name)
		var nPart, nBcast int
		for _, arr := range w.Source.Arrays {
			if part(arr.Name) {
				nPart++
				if wantBroadcast[w.Name](arr.Name) {
					t.Errorf("%s: array %q partitioned, want broadcast", w.Name, arr.Name)
				}
			} else {
				nBcast++
				if !wantBroadcast[w.Name](arr.Name) {
					t.Errorf("%s: array %q broadcast, want partitioned", w.Name, arr.Name)
				}
			}
		}
		if nPart == 0 {
			t.Errorf("%s: no partitionable arrays — the workload cannot shard", w.Name)
		}
	}
	// Unknown workloads partition every array (safe default: exact for
	// page-local kernels).
	if p := Partition("no-such-workload"); !p("anything") {
		t.Error("unknown workload did not default to partition-everything")
	}
	// The predicate matches under Canonical, like Find does.
	if p := Partition("LlaMA2 Inference"); p("wq_0_1") || !p("x") {
		t.Error("display-name lookup did not resolve the transformer rules")
	}
}

func TestResolve(t *testing.T) {
	all, err := Resolve(nil)
	if err != nil || len(all) != 6 || all[0] != "AES" || all[5] != "LLM Training" {
		t.Errorf("Resolve(nil) = %q, %v; want the suite in figure order", all, err)
	}
	got, err := Resolve([]string{" llama2-inference", "aes", "LlaMA2 Inference", "AES "})
	if err != nil || len(got) != 2 || got[0] != "LlaMA2 Inference" || got[1] != "AES" {
		t.Errorf("Resolve = %q, %v; want display names, first mention first, no duplicates", got, err)
	}
	if _, err := Resolve([]string{"aes", "no-such"}); err == nil {
		t.Error("Resolve accepted an unknown workload")
	}
}
