package serve

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conduit/internal/metrics"
	"conduit/internal/sim"
	"conduit/internal/stats"
	"conduit/internal/trace"
)

// countingRunner counts executions per key and returns a deterministic
// outcome derived from the key.
type countingRunner struct {
	execs int64
	delay time.Duration
	fail  map[string]error
}

func (r *countingRunner) RunCell(workload, policy string, _ *trace.Span) (Outcome, error) {
	atomic.AddInt64(&r.execs, 1)
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	if err := r.fail[workload+"|"+policy]; err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Value:   workload + "/" + policy,
		Elapsed: sim.Time(simTimeOf(workload, policy)),
		EnergyJ: 0.5,
	}, nil
}

func simTimeOf(workload, policy string) (t int64) {
	for _, c := range []byte(workload + policy) {
		t += int64(c)
	}
	return t
}

func TestEngineServesAndAccounts(t *testing.T) {
	r := &countingRunner{}
	e := NewEngine(r, Config{Concurrency: 4})
	defer e.Drain()

	const perTenant = 5
	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b", "c"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, i int) {
				defer wg.Done()
				resp, err := e.Do(Request{Tenant: tenant, Workload: fmt.Sprint("w", i), Policy: "Conduit"})
				if err != nil {
					t.Errorf("%s/%d: %v", tenant, i, err)
					return
				}
				want := fmt.Sprintf("w%d/Conduit", i)
				if resp.Outcome.Value != want {
					t.Errorf("%s/%d: got %v, want %v", tenant, i, resp.Outcome.Value, want)
				}
				if resp.Outcome.Elapsed <= 0 || resp.Latency <= 0 {
					t.Errorf("%s/%d: missing timing", tenant, i)
				}
			}(tenant, i)
		}
	}
	wg.Wait()

	snaps := e.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("got %d tenants, want 3", len(snaps))
	}
	for _, s := range snaps {
		if s.Requests != perTenant || s.Errors != 0 {
			t.Errorf("tenant %s: requests=%d errors=%d, want %d/0", s.Tenant, s.Requests, s.Errors, perTenant)
		}
		if s.EnergyJ != 0.5*perTenant {
			t.Errorf("tenant %s: energy %v, want %v", s.Tenant, s.EnergyJ, 0.5*perTenant)
		}
	}
}

// TestEngineCoalesceBatchesConcurrentIdenticalRequests: concurrent
// same-cell requests share executions while one is in flight, but the
// result is not cached — a request issued after completion re-executes.
func TestEngineCoalesceBatchesConcurrentIdenticalRequests(t *testing.T) {
	r := &countingRunner{delay: 20 * time.Millisecond}
	e := NewEngine(r, Config{Concurrency: 8, Coalesce: true})
	defer e.Drain()

	const n = 8
	var wg sync.WaitGroup
	var shared int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := e.Do(Request{Tenant: "t", Workload: "w", Policy: "p"})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Shared {
				atomic.AddInt64(&shared, 1)
			}
		}()
	}
	wg.Wait()
	execs := atomic.LoadInt64(&r.execs)
	if execs+shared != n {
		t.Fatalf("conservation violated: execs=%d shared=%d, want sum %d", execs, shared, n)
	}
	if execs >= n {
		t.Fatalf("no batching: %d executions for %d concurrent identical requests", execs, n)
	}
	// Coalescing is not a cache: a later lone request executes afresh.
	before := atomic.LoadInt64(&r.execs)
	if _, err := e.Do(Request{Tenant: "t", Workload: "w", Policy: "p"}); err != nil {
		t.Fatal(err)
	}
	if after := atomic.LoadInt64(&r.execs); after != before+1 {
		t.Fatalf("post-completion request did not re-execute (execs %d -> %d)", before, after)
	}
}

func TestEngineDrainRejectsAndCompletes(t *testing.T) {
	r := &countingRunner{delay: 5 * time.Millisecond}
	e := NewEngine(r, Config{Concurrency: 2})

	const n = 10
	var ok int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Do(Request{Tenant: "t", Workload: fmt.Sprint("w", i), Policy: "p"}); err == nil {
				atomic.AddInt64(&ok, 1)
			} else if !errors.Is(err, ErrDraining) {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	e.Drain()
	e.Drain() // idempotent

	if _, err := e.Do(Request{Tenant: "t", Workload: "late", Policy: "p"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do after Drain: err=%v, want ErrDraining", err)
	}
	// Every admitted request was actually executed and accounted.
	var accounted int64
	for _, s := range e.Snapshot() {
		accounted += s.Requests
	}
	if accounted != atomic.LoadInt64(&ok) {
		t.Fatalf("accounted %d requests, %d clients got responses", accounted, ok)
	}
}

// TestEngineContainsBackendPanics: a panicking backend fails the request
// (and any coalesced joiners) with an error instead of crashing the
// server; the worker keeps serving.
func TestEngineContainsBackendPanics(t *testing.T) {
	bomb := int64(1)
	r := RunnerFunc(func(workload, policy string, _ *trace.Span) (Outcome, error) {
		if workload == "bomb" && atomic.AddInt64(&bomb, -1) >= 0 {
			panic("backend exploded")
		}
		return Outcome{Value: workload}, nil
	})
	e := NewEngine(r, Config{Concurrency: 1, Coalesce: true})
	defer e.Drain()

	if _, err := e.Do(Request{Tenant: "t", Workload: "bomb", Policy: "p"}); err == nil ||
		!strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking cell: err=%v, want panic error", err)
	}
	resp, err := e.Do(Request{Tenant: "t", Workload: "fine", Policy: "p"})
	if err != nil || resp.Outcome.Value != "fine" {
		t.Fatalf("engine did not survive backend panic: resp=%v err=%v", resp, err)
	}
	snaps := e.Snapshot()
	if len(snaps) != 1 || snaps[0].Errors != 1 || snaps[0].Requests != 2 {
		t.Fatalf("accounting after panic: %+v", snaps)
	}
}

func TestEngineBackendErrorsAreReturnedAndCounted(t *testing.T) {
	boom := errors.New("boom")
	r := &countingRunner{fail: map[string]error{"w|bad": boom}}
	e := NewEngine(r, Config{Concurrency: 2})
	defer e.Drain()

	resp, err := e.Do(Request{Tenant: "t", Workload: "w", Policy: "bad"})
	if !errors.Is(err, boom) || !errors.Is(resp.Err, boom) {
		t.Fatalf("err=%v resp.Err=%v, want boom", err, resp.Err)
	}
	if _, err := e.Do(Request{Tenant: "t", Workload: "w", Policy: "good"}); err != nil {
		t.Fatal(err)
	}
	snaps := e.Snapshot()
	if len(snaps) != 1 || snaps[0].Errors != 1 || snaps[0].Requests != 2 {
		t.Fatalf("error accounting: %+v", snaps)
	}
}

// TestFlightGroupSemantics locks in Do's sharing mode, which the
// experiment harness builds on.
func TestFlightGroupSemantics(t *testing.T) {
	var g FlightGroup[string, int]
	calls := 0
	fn := func() (int, error) { calls++; return calls, nil }

	// Do memoizes successes forever.
	v, joined, err := g.Do("k", fn)
	if v != 1 || joined || err != nil {
		t.Fatalf("first Do: v=%v joined=%v err=%v", v, joined, err)
	}
	v, joined, err = g.Do("k", fn)
	if v != 1 || !joined || err != nil {
		t.Fatalf("second Do must hit cache: v=%v joined=%v err=%v", v, joined, err)
	}

	// Failures are not cached.
	fails := 0
	failing := func() (int, error) {
		fails++
		if fails == 1 {
			return 0, errors.New("transient")
		}
		return 42, nil
	}
	if _, _, err := g.Do("f", failing); err == nil {
		t.Fatal("first call must fail")
	}
	if v, _, err := g.Do("f", failing); err != nil || v != 42 {
		t.Fatalf("retry after failure: v=%v err=%v", v, err)
	}
}

// recoveryRunner returns a fixed Recovery on every execution, failing
// the cells listed in fail — with the Recovery still attached, the way
// the fault-tolerant dispatcher reports exhausted retries.
type recoveryRunner struct {
	rec  Recovery
	fail map[string]error
}

func (r *recoveryRunner) RunCell(workload, policy string, _ *trace.Span) (Outcome, error) {
	if err := r.fail[workload+"|"+policy]; err != nil {
		return Outcome{Recovery: r.rec}, err
	}
	return Outcome{Value: workload, Elapsed: 10, EnergyJ: 1, Recovery: r.rec}, nil
}

// TestEngineAccountsRecovery: per-request Recovery merges into the
// tenant and global accounts — for failed requests too, whose burnt
// retries are real work.
func TestEngineAccountsRecovery(t *testing.T) {
	rec := Recovery{Attempts: 2, Retries: 1, Hedges: 1, HedgeWins: 1, Fallbacks: 1, BackoffSim: 100}
	r := &recoveryRunner{rec: rec, fail: map[string]error{"bad|p": errors.New("exhausted")}}
	e := NewEngine(r, Config{Concurrency: 1})
	defer e.Drain()
	for i := 0; i < 3; i++ {
		if _, err := e.Do(Request{Tenant: "a", Workload: "ok", Policy: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Do(Request{Tenant: "a", Workload: "bad", Policy: "p"}); err == nil {
		t.Fatal("failing cell served")
	}
	total := e.Total()
	// 4 requests total, each carrying one copy of rec — including the
	// failed one.
	if total.Recovery.Retries != 4 || total.Recovery.Attempts != 8 {
		t.Errorf("total recovery = %+v, want 4 requests' worth of %+v", total.Recovery, rec)
	}
	if total.Recovery.BackoffSim != 400 {
		t.Errorf("BackoffSim = %v, want 400", total.Recovery.BackoffSim)
	}
}

// TestReportTable: Report renders the serve report's columns from a
// scrape; its TOTAL row is the column sums and agrees with the engine's
// own all-tenant account; and a fleet scrape of two targets, relabelled
// target="<name>", renders exactly as their union merged with
// Registry.Add.
func TestReportTable(t *testing.T) {
	scrape := func(tenants ...string) ([]metrics.Sample, TenantSnapshot) {
		r := &recoveryRunner{rec: Recovery{Attempts: 2, Retries: 1, Hedges: 1, Fallbacks: 1},
			fail: map[string]error{"bad|p": errors.New("exhausted")}}
		e := NewEngine(r, Config{Concurrency: 1})
		defer e.Drain()
		for i, tenant := range tenants {
			w := "ok"
			if i%3 == 2 {
				w = "bad"
			}
			e.Do(Request{Tenant: tenant, Workload: w, Policy: "p", Deadline: time.Hour})
		}
		reg := metrics.New()
		e.FillMetrics(reg)
		return reg.Snapshot(), e.Total()
	}
	a, totalA := scrape("x", "y", "x", "y", "x")
	b, _ := scrape("y", "z", "z", "y")

	want := []string{"tenant", "requests", "errors", "shed", "expired", "shared",
		"retries", "hedges", "fallback", "slo_pct",
		"p50_ms", "p99_ms", "p999_ms", "max_ms", "sim_ms", "energy_J"}
	one := Report("one target", a)
	if !reflect.DeepEqual(one.Columns, want) {
		t.Fatalf("columns %v, want %v", one.Columns, want)
	}
	oneRows := rowsOf(t, one)
	total := oneRows[len(oneRows)-1]
	if total[0] != "TOTAL" {
		t.Fatalf("last row is %q, want TOTAL", total[0])
	}
	for col, v := range []int64{totalA.Requests, totalA.Errors, totalA.Shed, totalA.Expired, totalA.Shared,
		totalA.Recovery.Retries, totalA.Recovery.Hedges, totalA.Recovery.Fallbacks} {
		if got := total[col+1]; got != fmt.Sprint(v) {
			t.Errorf("TOTAL %s = %s, engine total says %d", want[col+1], got, v)
		}
	}
	if got, w := total[10], fmt.Sprintf("%.3f", float64(totalA.P50)/1e6); got != w {
		t.Errorf("TOTAL p50_ms = %s, all-tenant histogram says %s", got, w)
	}

	fleet, union := metrics.New(), metrics.New()
	for target, samples := range map[string][]metrics.Sample{"t0": a, "t1": b} {
		for _, s := range metrics.Relabel(samples, "target", target) {
			fleet.Add(s)
		}
		for _, s := range samples {
			union.Add(s)
		}
	}
	got := Report("fleet", fleet.Snapshot())
	if w := Report("fleet", union.Snapshot()); got.String() != w.String() {
		t.Errorf("fleet table differs from the union's\nfleet:\n%s\nunion:\n%s", got, w)
	}
	if got.NumRows() != 4 {
		t.Fatalf("fleet table has %d rows, want x, y, z and TOTAL:\n%s", got.NumRows(), got)
	}
	gotRows := rowsOf(t, got)
	for col := 1; col <= 8; col++ {
		var sum int64
		for row := 0; row < 3; row++ {
			v, err := strconv.ParseInt(gotRows[row][col], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if cell := gotRows[3][col]; cell != fmt.Sprint(sum) {
			t.Errorf("TOTAL %s = %s, column sums to %d", want[col], cell, sum)
		}
	}
}

// rowsOf is tab's data rows as its CSV rendering carries them.
func rowsOf(t *testing.T, tab *stats.Table) [][]string {
	t.Helper()
	var b bytes.Buffer
	tab.CSV(&b)
	rows, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows[1:]
}
