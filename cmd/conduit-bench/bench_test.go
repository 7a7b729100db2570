package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Expected quartiles are Python's statistics.quantiles(xs, n=4).
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		q1, q3 := quartiles(tc.xs)
		if med := median(tc.xs); med != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", tc.xs, med, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if p := percentile([]float64{4, 1, 3, 2}, 50); p != 2 {
		t.Errorf("nearest-rank p50 = %v, want 2", p)
	}
	if p := percentile([]float64{4, 1, 3, 2}, 99); p != 4 {
		t.Errorf("nearest-rank p99 = %v, want 4", p)
	}
}

func TestUnresolvedFlag(t *testing.T) {
	def := metricDef{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	if m := newMetric(def, 100, 101, 102, 103, 104); m.Unresolved {
		t.Errorf("spread %.3f within the bound was flagged unresolved", m.spread())
	}
	if m := newMetric(def, 80, 90, 100, 110, 120); !m.Unresolved {
		t.Errorf("spread %.3f beyond the bound was not flagged unresolved", m.spread())
	}
}

// fakeRunner completes one unit per call, each taking d.
type fakeRunner struct{ d time.Duration }

func (f fakeRunner) issue() (time.Duration, int, int) {
	time.Sleep(f.d)
	return f.d, 1, 0
}

func (fakeRunner) close() []string { return nil }

// A calibrated window counts and times its slices only, calibrates after
// every slice, and ends at whichever of its limits comes first.
func TestMeasureCalibrated(t *testing.T) {
	win := measureCalibrated(fakeRunner{time.Millisecond}, limit{n: 7})
	if win.done != 7 || len(win.latMS) != 7 || len(win.kernelMS) != 1 || !(win.slowdown() > 0) {
		t.Errorf("count-limited window: done %d, %d latencies, kernel %v", win.done, len(win.latMS), win.kernelMS)
	}
	start := time.Now()
	win = measureCalibrated(fakeRunner{10 * time.Millisecond}, limit{d: 3 * sliceLen})
	total := time.Since(start)
	n := time.Duration(len(win.kernelMS))
	if n < 1 || win.wall > n*(sliceLen+20*time.Millisecond) {
		t.Errorf("%d calibrations in a window that issued for %v: slices are longer than %v", n, win.wall, sliceLen)
	}
	kernels := time.Duration(float64(n) * mean(win.kernelMS) * float64(time.Millisecond))
	if win.wall+kernels > total+time.Millisecond {
		t.Errorf("window wall %v includes calibration: total %v, kernels %v", win.wall, total, kernels)
	}
	if win = measureCalibrated(fakeRunner{time.Millisecond}, limit{}); win.done != 0 {
		t.Errorf("an empty limit issued %d units", win.done)
	}
	for _, tc := range []struct {
		lim  limit
		done int
		want bool
	}{
		{limit{n: 3}, 2, false},
		{limit{n: 3}, 3, true},
		{limit{d: time.Hour}, 1 << 20, false},
		{limit{d: time.Hour, n: 3}, 3, true},
		{limit{d: time.Nanosecond, n: 3}, 0, true},
		{limit{}, 0, true},
	} {
		if got := tc.lim.reached(time.Now().Add(-time.Microsecond), tc.done); got != tc.want {
			t.Errorf("%+v reached after %d = %v, want %v", tc.lim, tc.done, got, tc.want)
		}
	}
}

// On a machine twice as slow as the reference, rates double and times
// halve when put at reference speed.
func TestAtReference(t *testing.T) {
	if got := atReference("req_per_s", 100, 2); got != 200 {
		t.Errorf("req_per_s at reference speed = %v, want 200", got)
	}
	for _, name := range []string{"p50_ms", "cpu_ms_per_req", "setup_s"} {
		if got := atReference(name, 100, 2); got != 50 {
			t.Errorf("%s at reference speed = %v, want 50", name, got)
		}
	}
}

func TestPairedDiffs(t *testing.T) {
	got := pairedDiffs([]float64{5, 7, 9}, []float64{1, 2, 3, 4})
	if !reflect.DeepEqual(got, []float64{4, 5, 6}) {
		t.Errorf("pairedDiffs = %v", got)
	}
}

// The ladder's reconciliation: parts, selfs and the residual sum to the
// outermost depth's median, and layers that add a constant are recovered
// as that constant with nothing left over.
func TestLadderSelfsReconcile(t *testing.T) {
	fork := []float64{10, 12, 11, 13, 10}
	run := []float64{100, 90, 110, 95, 105}
	add := func(below []float64, c float64) []float64 {
		out := make([]float64, len(below))
		for i, v := range below {
			out[i] = v + c
		}
		return out
	}
	l0 := make([]float64, len(fork))
	for i := range l0 {
		l0[i] = fork[i] + run[i] + 1
	}
	l1, l2 := add(l0, -20), add(add(l0, -20), 7)
	l3, l4 := add(l2, 150), add(add(l2, 150), 30)
	parts, selfs, total, residual := ladderSelfs([][]float64{l0, l1, l2, l3, l4}, [][]float64{fork, run})
	if want := []float64{1, -20, 7, 150, 30}; !reflect.DeepEqual(selfs, want) {
		t.Errorf("selfs = %v, want %v", selfs, want)
	}
	if total != median(l4) {
		t.Errorf("total = %v, want the outermost depth's median %v", total, median(l4))
	}
	sum := residual
	for _, v := range append(parts, selfs...) {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("parts %v + selfs %v + residual %v = %v, want %v", parts, selfs, residual, sum, total)
	}

	// With noise the medians no longer add up; the residual says by how much.
	l4[2] += 500
	run[0] += 40
	parts, selfs, total, residual = ladderSelfs([][]float64{l0, l1, l2, l3, l4}, [][]float64{fork, run})
	sum = residual
	for _, v := range append(parts, selfs...) {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("with noise: parts + selfs + residual = %v, want %v", sum, total)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	light, _ := findWorkload("serve_light")
	fleet, _ := findWorkload("fleet_light")
	heavy, _ := findWorkload("serve_heavy")
	const n = 500
	a := newGenerator(7, 0, light).take(n)
	if b := newGenerator(7, 0, light).take(n); !reflect.DeepEqual(a, b) {
		t.Error("same seed and client gave different sequences")
	}
	if b := newGenerator(8, 0, light).take(n); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same sequence")
	}
	if b := newGenerator(7, 1, light).take(n); reflect.DeepEqual(a, b) {
		t.Error("different clients gave the same sequence")
	}
	if b := newGenerator(7, 0, fleet).take(n); !reflect.DeepEqual(a, b) {
		t.Error("fleet_light and serve_light issue different sequences for one seed")
	}
	// Every whole block holds each (workload, policy) pair once.
	for _, w := range []*workload{light, heavy} {
		seq := newGenerator(3, 0, w).take(4 * w.blockSize())
		for b := 0; b < 4; b++ {
			seen := make(map[[2]string]int)
			for _, r := range seq[b*w.blockSize() : (b+1)*w.blockSize()] {
				seen[[2]string{r.Workload, r.Policy}]++
			}
			if len(seen) != w.blockSize() {
				t.Errorf("%s block %d holds %d distinct pairs, want %d", w.Name, b, len(seen), w.blockSize())
			}
		}
	}
	sweep, _ := findWorkload("sweep_grid")
	rows, cols := newGenerator(7, 0, sweep).grid()
	rows2, cols2 := newGenerator(7, 0, sweep).grid()
	if !reflect.DeepEqual(rows, rows2) || !reflect.DeepEqual(cols, cols2) || len(rows) != 6 || len(cols) != 10 {
		t.Errorf("grid order is not a function of the seed: %v %v vs %v %v", rows, cols, rows2, cols2)
	}
}

// A golden table that differs from the computed one in a single field
// fails the run; the committed one passes.
func TestPerturbedGoldenFails(t *testing.T) {
	light, _ := findWorkload("serve_light")
	refs, err := verifiedTable([]*workload{light})
	if err != nil {
		t.Fatalf("committed golden table: %v", err)
	}
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	k := light.keys()[1]
	c := golden[k]
	c.ElapsedNS++
	golden[k] = c
	perturbed, err := marshalGolden(golden, goldenKeys())
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyTable(refs, light.keys(), perturbed); err == nil || !strings.Contains(err.Error(), k.policy) {
		t.Errorf("a golden table perturbed in %v did not fail the run: %v", k, err)
	}
	delete(golden, k)
	missing, _ := marshalGolden(golden, goldenKeys())
	if err := verifyTable(refs, light.keys(), missing); err == nil {
		t.Error("a golden table missing a cell did not fail the run")
	}
	if refs[k].ElapsedNS == c.ElapsedNS {
		t.Fatal("perturbation had no effect")
	}
}

// The golden file on disk covers exactly the cells the workloads can
// request, in the order -update-golden writes them.
func TestGoldenCoversEveryCell(t *testing.T) {
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	keys := goldenKeys()
	if len(golden) != len(keys) {
		t.Errorf("golden table has %d cells, the workloads need %d", len(golden), len(keys))
	}
	again, err := marshalGolden(golden, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, goldenJSON) {
		t.Error("testdata/sim_golden.json is not in canonical form; regenerate it with -update-golden")
	}
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of output is not the result object: %v\n%s", err, out)
	}
	return res
}

// The smoke path: every workload end to end on fixed request counts.
func TestSmokeEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	res := lastLine(t, stdout.String())
	if !res.Correct || res.Failed != 0 || res.Attempted < 4*smokeRequests {
		t.Errorf("result = correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	for _, w := range allWorkloads() {
		for _, def := range endToEnd {
			m, ok := res.Metrics[w.Name+"."+def.Name]
			if !ok || m.Unit != def.Unit || !(m.Value > 0) {
				t.Errorf("%s.%s = %+v (present %v), want a positive value in %s", w.Name, def.Name, m, ok, def.Unit)
			}
		}
	}
	if len(res.Metrics) != 4*len(endToEnd) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), 4*len(endToEnd))
	}
}

// The smoke path of the trace pass: every per-layer metric, and a span
// file holding every depth of the ladder.
func TestSmokeTracePass(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "fleet_light", "--seed", "5", "--seconds", "1", "--trace", "1", "-smoke", "-spans", spans}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	res := lastLine(t, stdout.String())
	if !res.Correct || res.Failed != 0 {
		t.Errorf("result = correct %v, failed %d", res.Correct, res.Failed)
	}
	for _, def := range perLayer {
		if m, ok := res.Metrics[def.Name]; !ok || m.Unit != def.Unit || math.IsNaN(m.Value) {
			t.Errorf("%s = %+v (present %v)", def.Name, m, ok)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(perLayer))
	}
	if v := res.Metrics["router.attempts_per_req"].Value; v != 1 {
		t.Errorf("router.attempts_per_req = %v, want 1", v)
	}
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	count := make(map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span file: %v", err)
		}
		if s.EndNS < s.StartNS || s.Workload != "fleet_light" {
			t.Errorf("bad span %+v", s)
		}
		count[s.Name]++
	}
	light, _ := findWorkload("fleet_light")
	n := (smokeRequests + light.blockSize() - 1) / light.blockSize() * light.blockSize()
	for _, name := range []string{"conduit.fork", "ssd.run", "fork_run", "deployment.run", "serve.do", "client.do", "router.do"} {
		if count[name] != n {
			t.Errorf("%d %s spans, want one per ladder request (%d)", count[name], name, n)
		}
	}
}

// BENCHMARK.json at the repository root names the same workloads and
// metrics, with the same units, directions and bounds, as this package
// reports; a metric added to one and not the other fails here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nthis package reports %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nthis package reports %+v", spec.PerLayer, perLayer)
	}
	ws := allWorkloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads, this package runs %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d = %s, this package runs %s", i, spec.Workloads[i].Name, w.Name)
		}
		if n := len(spec.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("%s: why is %d characters, want 1 to 200", w.Name, n)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, -seconds defaults to %v", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"cmd/conduit-bench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
}
