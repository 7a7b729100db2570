package conduit_test

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"

	conduit "conduit"
)

// quickstartSource is a minimal application for facade tests.
func quickstartSource(n int) *conduit.Source {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 3)
	}
	return &conduit.Source{
		Name: "quickstart",
		Arrays: []*conduit.Array{
			{Name: "in", Elem: 1, Len: n, Input: true, Fill: conduit.Bytes(data)},
			{Name: "out", Elem: 1, Len: n},
		},
		Stmts: []conduit.Stmt{
			conduit.Loop{Name: "kernel", N: n, Body: []conduit.Assign{
				{Target: "out", Value: conduit.Bin{Op: conduit.OpXor,
					X: conduit.Bin{Op: conduit.OpMul, X: conduit.Ref{Name: "in"}, Y: conduit.Lit{Value: 7}},
					Y: conduit.Lit{Value: 0x5A}}},
			}},
		},
	}
}

func TestSystemRunAllPolicies(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(quickstartSource(2*16384), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range conduit.Policies() {
		res, err := sys.RunCompiled(c, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: zero elapsed time", p)
		}
		if res.Policy != p {
			t.Fatalf("result policy %q, want %q", res.Policy, p)
		}
	}
	if _, err := sys.RunCompiled(c, "nonsense"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

// TestInvalidConfigRefused: a System whose configuration Validate rejects
// builds no drive, and a run on it fails with Validate's message instead
// of reporting a time for a drive that cannot exist.
func TestInvalidConfigRefused(t *testing.T) {
	for name, edit := range map[string]func(*conduit.Config){
		"one core":          func(c *conduit.Config) { c.SSD.Cores = 1 },
		"odd MVE width":     func(c *conduit.Config) { c.SSD.MVEWidthBytes = 3 },
		"zero GC threshold": func(c *conduit.Config) { c.SSD.GCThreshold = 0 },
	} {
		cfg := conduit.DefaultConfig()
		edit(&cfg)
		want := cfg.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepts the config", name)
		}
		c, err := conduit.Compile(quickstartSource(2*16384), &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conduit.NewSystem(cfg).RunCompiled(c, "Conduit"); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: run returned %v, want %q", name, err, want)
		}
	}
}

func TestCompileExposesReport(t *testing.T) {
	cfg := conduit.DefaultConfig()
	c, err := conduit.Compile(quickstartSource(2*16384), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Report.VectorizablePercent() != 100 {
		t.Fatalf("quickstart should fully vectorize, got %v%%", c.Report.VectorizablePercent())
	}
	if len(c.ArrayPages("out")) == 0 {
		t.Fatal("symbol table missing output array")
	}
}

func TestDeviceDecisionsExposed(t *testing.T) {
	cfg := conduit.DefaultConfig()
	c, err := conduit.Compile(quickstartSource(2*16384), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conduit.NewSystem(cfg).RunCompiled(c, "Conduit")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) == 0 {
		t.Fatal("in-SSD run must expose its offloading trace")
	}
	fr := conduit.Fractions(res.Decisions)
	sum := fr[0] + fr[1] + fr[2]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
	if res.OverheadTime <= 0 {
		t.Fatal("offloader overhead must be reported")
	}
}

// TestEvaluationShape runs the full experiment matrix at smoke-test scale
// and asserts the qualitative relations the paper's figures rest on
// (docs/REPRO.md "Figure / table index" lists the figures). Absolute
// factors are scale-dependent and not asserted.
func TestEvaluationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep")
	}
	e := conduit.NewExperiments(conduit.DefaultConfig(), 2)

	geo := func(policy string) float64 {
		var logSum float64
		var n int
		for _, w := range e.Workloads() {
			s, err := e.Speedup(w, policy)
			if err != nil {
				t.Fatalf("%s/%s: %v", w, policy, err)
			}
			logSum += math.Log(s)
			n++
		}
		return math.Exp(logSum / float64(n))
	}

	conduitGeo := geo("Conduit")
	dmGeo := geo("DM-Offloading")
	bwGeo := geo("BW-Offloading")
	ispGeo := geo("ISP")
	idealGeo := geo("Ideal")

	// Ideal bounds everything (it is the stated upper bound).
	for _, w := range e.Workloads() {
		for _, p := range []string{"Conduit", "DM-Offloading", "BW-Offloading", "ISP", "PuD-SSD"} {
			sp, _ := e.Speedup(w, p)
			si, _ := e.Speedup(w, "Ideal")
			if sp > si*1.001 {
				t.Errorf("%s: %s (%.3f) exceeded Ideal (%.3f)", w, p, sp, si)
			}
		}
	}
	// Conduit does not lose to the prior offloading policies on geomean.
	if conduitGeo < dmGeo*0.97 {
		t.Errorf("Conduit geomean %.3f below DM-Offloading %.3f", conduitGeo, dmGeo)
	}
	if conduitGeo < bwGeo {
		t.Errorf("Conduit geomean %.3f below BW-Offloading %.3f", conduitGeo, bwGeo)
	}
	// Dynamic multi-resource offloading beats single-resource ISP.
	if conduitGeo < ispGeo {
		t.Errorf("Conduit geomean %.3f below ISP-only %.3f", conduitGeo, ispGeo)
	}
	if idealGeo < conduitGeo {
		t.Errorf("Ideal geomean %.3f below Conduit %.3f", idealGeo, conduitGeo)
	}

	// Energy: every in-SSD policy beats the hosts on the bitwise workload.
	cpuE, _ := e.Run("AES", "CPU")
	conduitE, _ := e.Run("AES", "Conduit")
	if conduitE.TotalEnergy() >= cpuE.TotalEnergy() {
		t.Errorf("Conduit AES energy %.3g should undercut CPU %.3g",
			conduitE.TotalEnergy(), cpuE.TotalEnergy())
	}

	// Fig 9 shape: memory-bound workloads barely use ISP under Conduit
	// (§6.4: 0.4% for AES).
	aes, _ := e.Run("AES", "Conduit")
	fr := conduit.Fractions(aes.Decisions)
	if fr[0] > 0.15 {
		t.Errorf("Conduit AES ISP fraction %.3f, want small (§6.4)", fr[0])
	}

	// Fig 8 shape: Conduit's p99.99 does not exceed BW-Offloading's
	// (contention-aware balancing, §6.3).
	for _, w := range []string{"LlaMA2 Inference", "jacobi-1d"} {
		c, _ := e.Run(w, "Conduit")
		b, _ := e.Run(w, "BW-Offloading")
		if c.InstLatencies.P9999() > b.InstLatencies.P9999() {
			t.Errorf("%s: Conduit p99.99 %v above BW-Offloading %v",
				w, c.InstLatencies.P9999(), b.InstLatencies.P9999())
		}
	}
}

func TestEveryExperimentRendersAtSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	e := conduit.NewExperiments(conduit.DefaultConfig(), 1)
	runs := []struct {
		name string
		fn   func() (*conduit.Table, error)
	}{
		{"table3", e.Table3},
		{"fig4", e.Fig4},
		{"fig5", e.Fig5},
		{"fig7a", e.Fig7a},
		{"fig7b", e.Fig7b},
		{"fig8", e.Fig8},
		{"fig9", e.Fig9},
		{"fig10", func() (*conduit.Table, error) { return e.Fig10(2000) }},
		{"overhead", e.Overhead},
		{"ablation", e.AblationCostFeatures},
	}
	for _, r := range runs {
		tab, err := r.fn()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if tab.NumRows() == 0 {
			t.Fatalf("%s: empty table", r.name)
		}
		if !strings.Contains(tab.String(), "-") {
			t.Fatalf("%s: render looks wrong", r.name)
		}
	}
}

func TestOverheadMatchesPaperEnvelope(t *testing.T) {
	e := conduit.NewExperiments(conduit.DefaultConfig(), 1)
	tab, err := e.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	// §4.5: 3.77 µs average per instruction (up to 33 µs); our mean per
	// workload must stay in that envelope.
	for _, row := range rowsOf(t, tab) {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", row[1], err)
		}
		if v < 0.5 || v > 33 {
			t.Errorf("%s: per-instruction overhead %vµs outside §4.5 envelope", row[0], v)
		}
	}
}

// rowsOf is tab's data rows as its CSV rendering carries them.
func rowsOf(t *testing.T, tab *conduit.Table) [][]string {
	t.Helper()
	var b bytes.Buffer
	tab.CSV(&b)
	rows, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows[1:]
}
