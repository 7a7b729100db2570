// Command conduit-bench is the repository's benchmark: four workloads,
// seven end-to-end metrics and a per-layer ladder, measured from outside
// the program by timing calls into each layer's public functions. See
// README.md in this directory for the protocol and the metric glossary.
//
//	go run ./cmd/conduit-bench -seed 1                      # all four workloads
//	go run ./cmd/conduit-bench -workload serve_light        # one workload
//	go run ./cmd/conduit-bench -workload fleet_light -trace 1 -spans spans.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const schema = "conduit-bench/v3"

// rounds is how often a run builds, measures and tears down each
// workload, and defaultSeconds is BENCHMARK.json's run_seconds: five
// windows of 5 s. Both are fixed so that any two records are comparable.
const (
	rounds         = 5
	defaultSeconds = 25
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// median by which an end-to-end metric may worsen before it is a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload. All are host time except sim_speedup_vs_cpu. Failures are
// reported as ok_pct, the complement of a failure rate, because a
// benchmark metric may never read 0.
var endToEnd = []metricDef{
	{"req_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"alloc_kb_per_req", "KiB", "lower", 0.02},
	{"ok_pct", "%", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
	{"sim_speedup_vs_cpu", "x", "higher", 0.001},
}

// atReference puts a host-time metric at the reference machine's speed:
// on a machine that runs the calibration kernel slow times slower,
// times read slow times longer and rates slow times lower.
func atReference(name string, raw, slow float64) float64 {
	if name == "req_per_s" {
		return raw * slow
	}
	return raw / slow
}

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	spans        string
	out          string
	updateGolden string
	smoke        bool
}

// smokeRequests is the size of a window on the smoke path: a fixed
// request count, so that its length does not depend on the machine.
const smokeRequests = 50

// warmup precedes every timed window.
const warmup = 500 * time.Millisecond

// rounds is 1 on the smoke path.
func (o options) rounds() int {
	if o.smoke {
		return 1
	}
	return rounds
}

// window and warm-up limits of one round; the smoke path does not warm up.
func (o options) limits() (warm, timed limit) {
	if o.smoke {
		return limit{}, limit{n: smokeRequests}
	}
	return limit{d: warmup}, limit{d: seconds(o.seconds / rounds)}
}

// samples is how many repetitions a microbenchmark of the trace pass
// takes: n, or a twentieth of it on the smoke path.
func (o options) samples(n int) int {
	if o.smoke {
		return max(n/20, 1)
	}
	return n
}

// metricOut is one reported metric: per-round values, their median and
// quartiles. Unresolved marks an end-to-end metric whose interquartile
// range exceeds its bound, so that a reader does not mistake its median
// for a resolved number.
type metricOut struct {
	metricDef
	summary
	Unresolved bool `json:"unresolved,omitempty"`
}

func newMetric(def metricDef, values ...float64) metricOut {
	m := metricOut{metricDef: def, summary: summarize(values)}
	m.Unresolved = def.Bound > 0 && m.spread() > def.Bound
	return m
}

// line is m as the report prints it.
func (m metricOut) line() string {
	line := fmt.Sprintf("  %-34s %14.4f %-6s", m.Name, m.Median, m.Unit)
	if len(m.Values) > 1 {
		line += fmt.Sprintf("  q1 %.4f  q3 %.4f  iqr %.2f%%", m.Q1, m.Q3, 100*m.spread())
	}
	if m.Bound > 0 {
		line += fmt.Sprintf("  bound %.1f%%", 100*m.Bound)
	}
	if m.Unresolved {
		line += "  UNRESOLVED: spread exceeds bound"
	}
	if len(m.Values) > 1 {
		line += fmt.Sprintf("  %.4f", m.Values)
	}
	return line
}

type workloadOut struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// P50Samples is the number of latency samples behind each round's
	// p50_ms.
	P50Samples []int `json:"p50_samples,omitempty"`
	// Slowdown is, per round, the calibration kernel's time as a share of
	// refKernelMS, and Raw the host-time metrics as the clock read them,
	// before they were put at reference speed.
	Slowdown []float64   `json:"host_slowdown,omitempty"`
	Metrics  []metricOut `json:"metrics"`
	Raw      []metricOut `json:"raw,omitempty"`
}

// fail records n failed operations with one description.
func (w *workloadOut) fail(n int, format string, args ...interface{}) {
	if n > 0 {
		w.Failed += n
		w.Failures = append(w.Failures, fmt.Sprintf(format, args...))
	}
}

// count adds a window's results.
func (w *workloadOut) count(where string, win window) {
	w.Attempted += win.done
	w.fail(win.bad, "%s: %d of %d results failed or differed from the reference table", where, win.bad, win.done)
}

// teardown counts one torn-down stack as an operation, failed if it
// leaked anything: a pool left open, a fork still buffered, a target that
// did not acknowledge its drain, goroutines that did not unwind.
func (w *workloadOut) teardown(where string, leaks []string) {
	w.Attempted++
	if len(leaks) > 0 {
		w.fail(1, "%s: %s", where, strings.Join(leaks, "; "))
	}
}

// record is the benchmark's full output: enough about the machine and
// the run to judge whether two records are comparable.
type record struct {
	Schema     string  `json:"schema"`
	GitRef     string  `json:"git_ref"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Rounds     int     `json:"rounds"`
	WindowS    float64 `json:"window_s"`
	// RefKernelMS is the calibration kernel's time on the reference
	// machine, at whose speed the host-time end-to-end metrics are reported.
	RefKernelMS float64       `json:"ref_kernel_ms"`
	Trace       bool          `json:"trace"`
	Workloads   []workloadOut `json:"workloads"`
}

func newRecord(o options) record {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	_, timed := o.limits()
	return record{
		Schema:      schema,
		GitRef:      gitRef(),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GOGC:        gogc,
		Seed:        o.seed,
		Rounds:      o.rounds(),
		WindowS:     timed.d.Seconds(),
		RefKernelMS: refKernelMS,
		Trace:       o.trace != 0,
	}
}

// gitRef is the revision the binary was built from, when the build was
// stamped (go build inside a git checkout); benchmark checkouts are not
// repositories and report "unknown".
func gitRef() string {
	ref, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				ref = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return ref + dirty
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("conduit-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", `workload to run: serve_heavy, serve_light, fleet_light, sweep_grid, or "all"`)
	fs.Uint64Var(&o.seed, "seed", 1, "the only source of request order")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload, split evenly over the 5 rounds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced ladder pass and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the ladder's spans as JSONL to `file`")
	fs.StringVar(&o.out, "out", "", "write the full record (per-round values, quartiles, machine) as JSON to `file`")
	fs.StringVar(&o.updateGolden, "update-golden", "", "recompute the reference table, write it to `file` and exit")
	fs.BoolVar(&o.smoke, "smoke", false, "one round of a fixed 50 requests per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "conduit-bench: -seconds must be positive")
		return 2
	}
	if err := bench(o, stdout); err != nil {
		fmt.Fprintln(stderr, "conduit-bench:", err)
		return 1
	}
	return 0
}

// errIncorrect is returned after a complete report whose answers were
// not all correct.
var errIncorrect = fmt.Errorf("some operations failed; see the failures above")

func bench(o options, stdout io.Writer) error {
	if o.updateGolden != "" {
		return updateGolden(o.updateGolden)
	}
	ws := allWorkloads()
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	refs, err := verifiedTable(ws)
	if err != nil {
		return err
	}
	rec := newRecord(o)
	if o.trace != 0 {
		var spans []span
		for _, w := range ws {
			out, sp, err := tracePass(o, w, refs)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			rec.Workloads = append(rec.Workloads, out)
			spans = append(spans, sp...)
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, spans); err != nil {
				return err
			}
		}
	} else if rec.Workloads, err = endToEndPass(o, ws, refs); err != nil {
		return err
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return report(stdout, rec)
}

// verifiedTable computes the reference cells ws need and fails unless
// they equal the committed golden table.
func verifiedTable(ws []*workload) (table, error) {
	var keys []cellKey
	for _, w := range ws {
		keys = append(keys, w.keys()...)
	}
	got, err := computeTable(keys)
	if err != nil {
		return nil, err
	}
	return got, verifyTable(got, keys, goldenJSON)
}

// verifyTable fails unless the computed cells for keys equal the golden
// table's: a change that moves a simulated result must say so by
// regenerating the table.
func verifyTable(got table, keys []cellKey, golden []byte) error {
	want, err := parseGolden(golden)
	if err != nil {
		return err
	}
	if diffs := diffTables(got, want, keys); len(diffs) > 0 {
		return fmt.Errorf("simulated results differ from testdata/sim_golden.json in %d cells (regenerate with -update-golden only if the model was meant to change):\n  %s",
			len(diffs), strings.Join(diffs, "\n  "))
	}
	return nil
}

func updateGolden(path string) error {
	keys := goldenKeys()
	t, err := computeTable(keys)
	if err != nil {
		return err
	}
	data, err := marshalGolden(t, keys)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// endToEndPass runs the rounds: in each, every workload in order builds
// a fresh stack (timed: one setup_s sample), warms up, runs one timed
// window and tears down, so slow phases of a shared machine hit all workloads
// alike and no state drifts across windows.
func endToEndPass(o options, ws []*workload, refs table) ([]workloadOut, error) {
	outs := make([]workloadOut, len(ws))
	samples := make([]map[string][]float64, len(ws))
	for i, w := range ws {
		outs[i].Name = w.Name
		samples[i] = make(map[string][]float64)
	}
	warm, timed := o.limits()
	baseline := runtime.NumGoroutine()
	for round := 0; round < o.rounds(); round++ {
		for i, w := range ws {
			out, s := &outs[i], samples[i]
			where := fmt.Sprintf("round %d", round)
			runtime.GC()
			start := time.Now()
			r, done, bad, err := setup(w, o.seed, refs)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
			}
			setupS := time.Since(start).Seconds()
			out.Attempted += done
			out.fail(bad, "%s: %d of %d results of the set-up differed from the reference table", where, bad, done)
			wu := measureCalibrated(r, warm)
			win := measureCalibrated(r, timed)
			out.count(where+" warm-up", wu)
			out.count(where, win)
			out.teardown(where, append(r.close(), settle(baseline)...))
			if win.good() == 0 {
				return nil, fmt.Errorf("%s: no correct completion in round %d: %s", w.Name, round, strings.Join(out.Failures, "; "))
			}
			slow := win.slowdown()
			out.Slowdown = append(out.Slowdown, slow)
			for _, m := range []struct {
				name string
				raw  float64
			}{
				{"req_per_s", win.good() / win.wall.Seconds()},
				{"p50_ms", median(win.latMS)},
				{"cpu_ms_per_req", float64(win.cpu) / 1e6 / win.good()},
				{"setup_s", setupS},
			} {
				s["raw."+m.name] = append(s["raw."+m.name], m.raw)
				s[m.name] = append(s[m.name], atReference(m.name, m.raw, slow))
			}
			s["alloc_kb_per_req"] = append(s["alloc_kb_per_req"], float64(win.allocBytes)/1024/win.good())
			out.P50Samples = append(out.P50Samples, len(win.latMS))
		}
	}
	for i, w := range ws {
		out, s := &outs[i], samples[i]
		s["ok_pct"] = []float64{100 * float64(out.Attempted-out.Failed) / float64(out.Attempted)}
		s["sim_speedup_vs_cpu"] = []float64{simSpeedup(refs, w)}
		for _, def := range endToEnd {
			out.Metrics = append(out.Metrics, newMetric(def, s[def.Name]...))
			if raw, ok := s["raw."+def.Name]; ok {
				out.Raw = append(out.Raw, newMetric(metricDef{Name: "raw." + def.Name, Unit: def.Unit, Better: def.Better}, raw...))
			}
		}
	}
	return outs, nil
}

// report prints every metric by name with its unit, then, as the last
// line, the result object the benchmark contract asks for. With one
// workload the metrics carry their plain names; with several they are
// prefixed "<workload>.".
func report(stdout io.Writer, rec record) error {
	fmt.Fprintf(stdout, "%s seed=%d rounds=%d window=%.2fs ref_kernel=%.1fms trace=%v git=%s %s\n%s nproc=%d GOMAXPROCS=%d GOGC=%s\n",
		rec.Schema, rec.Seed, rec.Rounds, rec.WindowS, rec.RefKernelMS, rec.Trace, rec.GitRef, rec.GoVersion,
		rec.CPUModel, rec.NProc, rec.GOMAXPROCS, rec.GOGC)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	for _, w := range rec.Workloads {
		fmt.Fprintf(stdout, "\n%s: attempted %d, failed %d\n", w.Name, w.Attempted, w.Failed)
		for _, f := range w.Failures {
			fmt.Fprintf(stdout, "  FAILED %s\n", f)
		}
		if len(w.P50Samples) > 0 {
			fmt.Fprintf(stdout, "  p50_ms sample counts per round: %d\n", w.P50Samples)
		}
		for _, m := range w.Metrics {
			fmt.Fprintln(stdout, m.line())
			name := m.Name
			if len(rec.Workloads) > 1 {
				name = w.Name + "." + m.Name
			}
			result.Metrics[name] = value{m.Median, m.Unit}
		}
		if len(w.Slowdown) > 0 {
			fmt.Fprintf(stdout, "  %-34s %.4f  (calibration kernel's time / ref_kernel; below, the values as the clock read them)\n", "host_slowdown per round", w.Slowdown)
		}
		for _, m := range w.Raw {
			fmt.Fprintln(stdout, m.line())
		}
		result.Attempted += w.Attempted
		result.Failed += w.Failed
	}
	result.Correct = result.Failed == 0
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s\n", line)
	if !result.Correct {
		return errIncorrect
	}
	return nil
}
