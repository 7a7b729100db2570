package conduit_test

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	conduit "conduit"
	"conduit/internal/workloads"
)

// mustWorkloadSource pulls an evaluation-suite workload source at smoke
// scale; the chaos tests use aes for its naturally skewed 2-shard plan.
func mustWorkloadSource(t *testing.T, name string) *conduit.Source {
	t.Helper()
	w, ok := workloads.Find(name, 1)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w.Source
}

// chaosServeOptions is the full-recovery chaos config the serving tests
// share: every seam injecting, every recovery mechanism on.
func chaosServeOptions(rate float64, seed uint64) conduit.ServeOptions {
	cfg := conduit.FaultsAtRate(rate, seed)
	return conduit.ServeOptions{
		Concurrency: 1, // serial service: the outcome sequence is the determinism witness
		Prefork:     2,
		Faults:      &cfg,
		Recovery: conduit.RecoveryOptions{
			MaxAttempts:      3,
			HedgeThreshold:   8,
			BreakerThreshold: 4,
			FallbackPolicy:   "CPU",
		},
	}
}

// chaosOutcomes serves n identical sharded requests one by one and
// returns the per-request outcome transcript plus the fault log.
func chaosOutcomes(t *testing.T, opts conduit.ServeOptions, n int) ([]string, []conduit.Fault) {
	t.Helper()
	srv := conduit.NewServer(conduit.DefaultConfig(), opts)
	defer srv.Drain()
	if err := srv.RegisterSharded("aes", mustWorkloadSource(t, "aes"), 2); err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, err := srv.Do(conduit.Request{Tenant: "t", Workload: "aes", Policy: "Conduit"})
		switch {
		case err != nil:
			out = append(out, "err:"+err.Error())
		default:
			r := conduit.ResultOf(resp)
			out = append(out, "ok:"+r.Elapsed.String()+
				"/retries="+strconv.FormatInt(resp.Outcome.Recovery.Retries, 10)+
				"/hedges="+strconv.FormatInt(resp.Outcome.Recovery.Hedges, 10))
		}
	}
	return out, srv.FaultLog()
}

// TestChaosDeterministicSameSeed: the same chaos seed and request
// sequence must yield an identical outcome transcript and an identical
// per-site fault schedule across two fresh servers.
func TestChaosDeterministicSameSeed(t *testing.T) {
	a, logA := chaosOutcomes(t, chaosServeOptions(0.1, 7), 25)
	b, logB := chaosOutcomes(t, chaosServeOptions(0.1, 7), 25)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged across identically seeded runs:\n a: %s\n b: %s", i, a[i], b[i])
		}
	}
	if len(logA) != len(logB) {
		t.Fatalf("fault log lengths diverged: %d vs %d", len(logA), len(logB))
	}
	// Serial service makes even the global injection order reproducible.
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("fault %d diverged: %+v vs %+v", i, logA[i], logB[i])
		}
	}
	if len(logA) == 0 {
		t.Fatal("chaos run at 10% injected nothing; the test is vacuous")
	}
}

// TestChaosRecordReplayIdenticalOutcomes: replaying a recorded fault
// schedule (ServeOptions.ReplayFaults) against the same request sequence
// must reproduce the identical outcome transcript without consulting the
// chaos RNG at all — and re-record the identical schedule.
func TestChaosRecordReplayIdenticalOutcomes(t *testing.T) {
	recorded, log := chaosOutcomes(t, chaosServeOptions(0.1, 7), 25)
	opts := chaosServeOptions(0, 0)
	opts.Faults = nil
	opts.ReplayFaults = log
	replayed, relog := chaosOutcomes(t, opts, 25)
	for i := range recorded {
		if recorded[i] != replayed[i] {
			t.Fatalf("request %d: replay diverged from recording:\n recorded: %s\n replayed: %s",
				i, recorded[i], replayed[i])
		}
	}
	if len(relog) != len(log) {
		t.Fatalf("replay re-recorded %d faults, recording had %d", len(relog), len(log))
	}
}

// TestChaosFaultLogRoundTripsThroughFile: the JSONL record written by
// WriteFaultLog replays identically after a disk round trip.
func TestChaosFaultLogRoundTripsThroughFile(t *testing.T) {
	recorded, log := chaosOutcomes(t, chaosServeOptions(0.1, 11), 10)
	path := filepath.Join(t.TempDir(), "faults.jsonl")
	if err := conduit.WriteFaultLog(path, log); err != nil {
		t.Fatal(err)
	}
	loaded, err := conduit.ReadFaultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosServeOptions(0, 0)
	opts.Faults = nil
	opts.ReplayFaults = loaded
	replayed, _ := chaosOutcomes(t, opts, 10)
	for i := range recorded {
		if recorded[i] != replayed[i] {
			t.Fatalf("request %d: file-replayed outcome diverged:\n recorded: %s\n replayed: %s",
				i, recorded[i], replayed[i])
		}
	}
}

// TestReadFaultLogRefusesImpossibleRecords: ReadFaultLog refuses, by
// line number, every record an injector could not have written, and
// accepts the edge records it can write.
func TestReadFaultLogRefusesImpossibleRecords(t *testing.T) {
	const valid = `{"seq":0,"site":"dev|aes#1","site_seq":2,"kind":"shard-fail","workload":"aes","shard":1,"attempt":1,"slowdown":1}`
	for _, c := range []struct{ name, line, want string }{
		{"kind of another seam", `{"site":"pool|aes#0","site_seq":0,"kind":"panic","workload":"aes","attempt":1}`, "no seam injects"},
		{"unknown kind", `{"site":"serve|aes","site_seq":0,"kind":"stall","workload":"aes","attempt":1}`, "no seam injects"},
		{"site of another workload", `{"site":"serve|aes","site_seq":0,"kind":"backend","workload":"xor","attempt":1}`, "no seam injects"},
		{"site of another shard", `{"site":"dev|aes#1","site_seq":0,"kind":"panic","workload":"aes","attempt":1}`, "no seam injects"},
		{"shard on an unsharded seam", `{"site":"serve|aes","site_seq":0,"kind":"backend","workload":"aes","shard":2,"attempt":1}`, "no seam injects"},
		{"negative site_seq", `{"site":"serve|aes","site_seq":-1,"kind":"backend","workload":"aes","attempt":1}`, "negative site_seq"},
		{"slowdown on a panic", `{"site":"dev|aes#0","site_seq":0,"kind":"panic","workload":"aes","attempt":1,"slowdown":2}`, "carries no slowdown"},
		{"slowdown on a fork failure", `{"site":"pool|aes#0","site_seq":0,"kind":"fork-fail","workload":"aes","attempt":1,"slowdown":2}`, "carries no slowdown"},
		{"slowdown too large", `{"site":"dev|aes#0","site_seq":0,"kind":"slow","workload":"aes","attempt":1,"slowdown":1e300}`, "outside"},
		{"negative slowdown", `{"site":"dev|aes#0","site_seq":0,"kind":"slow","workload":"aes","attempt":1,"slowdown":-3}`, "outside"},
		{"slowdown below 1", `{"site":"dev|aes#0","site_seq":0,"kind":"shard-fail","workload":"aes","attempt":1,"slowdown":0.5}`, "outside"},
		{"slow fault without a slowdown", `{"site":"dev|aes#0","site_seq":0,"kind":"slow","workload":"aes","attempt":1,"slowdown":1}`, "outside"},
	} {
		path := filepath.Join(t.TempDir(), "faults.jsonl")
		if err := os.WriteFile(path, []byte(valid+"\n\n"+c.line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := conduit.ReadFaultLog(path)
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want line 3 refused with %q", c.name, err, c.want)
		}
	}
	path := filepath.Join(t.TempDir(), "faults.jsonl")
	edge := valid + "\n" + `{"site":"dev|aes#0","site_seq":7,"kind":"slow","workload":"aes","attempt":3,"slowdown":1000}` + "\n"
	if err := os.WriteFile(path, []byte(edge), 0o644); err != nil {
		t.Fatal(err)
	}
	if log, err := conduit.ReadFaultLog(path); err != nil || len(log) != 2 {
		t.Errorf("edge records an injector writes: %d faults, err = %v", len(log), err)
	}
}

// TestInjectedPanicContained: a certain-panic chaos config must surface
// as a per-request `shard N panicked` error — the process (and the
// serving workers) survive, matching the serve engine's containment
// contract.
func TestInjectedPanicContained(t *testing.T) {
	cfg := conduit.FaultConfig{Seed: 3, PanicRate: 1}
	srv := conduit.NewServer(conduit.DefaultConfig(), conduit.ServeOptions{
		Concurrency: 1,
		Prefork:     1,
		Faults:      &cfg,
	})
	defer srv.Drain()
	if err := srv.RegisterSharded("aes", mustWorkloadSource(t, "aes"), 2); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Do(conduit.Request{Tenant: "t", Workload: "aes", Policy: "Conduit"})
	if err == nil {
		t.Fatal("certain injected panic served successfully")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("injected panic surfaced as %q, want a contained `shard N panicked` error", err)
	}
	// The server is still alive, and host policies see only the dispatch
	// seam (rate 0 here): the follow-up CPU request must serve cleanly.
	if _, err := srv.Do(conduit.Request{Tenant: "t", Workload: "aes", Policy: "CPU"}); err != nil {
		t.Fatalf("CPU request after contained panic: %v", err)
	}
}

// TestBreakerFallbackServesThroughOpenCircuit: with every shard run
// failing, breakers must trip and the fallback policy must keep serving
// requests successfully.
func TestBreakerFallbackServesThroughOpenCircuit(t *testing.T) {
	cfg := conduit.FaultConfig{Seed: 5, ShardFail: 1}
	srv := conduit.NewServer(conduit.DefaultConfig(), conduit.ServeOptions{
		Concurrency: 1,
		Prefork:     1,
		Faults:      &cfg,
		Recovery: conduit.RecoveryOptions{
			MaxAttempts:      2,
			BreakerThreshold: 3,
			FallbackPolicy:   "CPU",
		},
	})
	defer srv.Drain()
	if err := srv.RegisterSharded("aes", mustWorkloadSource(t, "aes"), 2); err != nil {
		t.Fatal(err)
	}
	var served int
	for i := 0; i < 10; i++ {
		if _, err := srv.Do(conduit.Request{Tenant: "t", Workload: "aes", Policy: "Conduit"}); err == nil {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no request served: breakers never degraded to the CPU fallback")
	}
	trips := int64(0)
	states := srv.Breakers()
	if len(states) == 0 {
		t.Fatal("no breaker state reported")
	}
	for _, b := range states {
		trips += b.Trips
	}
	if trips == 0 {
		t.Fatal("certain shard failure never tripped a breaker")
	}
	if total := srv.Total(); total.Recovery.Fallbacks == 0 {
		t.Error("served through open breakers without accounting any fallbacks")
	}
}

// TestPoolClosedAfterDrain pins the ErrPoolClosed satellite: a drained
// pool refuses Get (and therefore device-policy Runs) explicitly instead
// of silently cloning inline.
func TestPoolClosedAfterDrain(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(mustWorkloadSource(t, "aes"), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	pool := dep.Prefork(2)
	dep.Close()
	if _, err := pool.Get(); !errors.Is(err, conduit.ErrPoolClosed) {
		t.Fatalf("Get on closed pool: err = %v, want ErrPoolClosed", err)
	}
	if _, err := dep.Run("Conduit"); !errors.Is(err, conduit.ErrPoolClosed) {
		t.Fatalf("device-policy Run on drained deployment: err = %v, want ErrPoolClosed", err)
	}
	// Host policies never touch the pool and must keep working.
	if _, err := dep.Run("CPU"); err != nil {
		t.Fatalf("host run after Close: %v", err)
	}
}

// TestPoolQuarantineRepairs pins the quarantine satellite: quarantining
// a poisoned fork counts it, and the repair (the ready list re-cloned
// before Quarantine returns) is accounted immediately.
func TestPoolQuarantineRepairs(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(mustWorkloadSource(t, "aes"), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	pool := dep.Prefork(2)
	pool.Quarantine()
	st := pool.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Repairs != 1 {
		t.Errorf("Repairs = %d, want 1", st.Repairs)
	}
	// The repaired pool still serves byte-identical forks.
	if _, err := dep.Run("Conduit"); err != nil {
		t.Fatalf("run after quarantine/repair: %v", err)
	}
}

// TestAvailabilityRecoveryBeatsBaseline pins the headline robustness
// claim: at a 5% master fault rate the full recovery stack must serve
// strictly more requests successfully — and attain strictly more SLOs —
// than the no-recovery baseline.
func TestAvailabilityRecoveryBeatsBaseline(t *testing.T) {
	tab, err := conduit.NewExperiments(conduit.DefaultConfig(), 1).Availability(conduit.AvailabilityOptions{
		Requests:   100,
		FaultRates: []float64{0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(t, tab)
	cell := func(row int, col int) float64 {
		v, err := strconv.ParseFloat(rows[row][col], 64)
		if err != nil {
			t.Fatalf("cell (%d,%d) %q: %v", row, col, rows[row][col], err)
		}
		return v
	}
	var base, full int = -1, -1
	for r, row := range rows {
		switch row[1] {
		case "none":
			base = r
		case "retry+hedge+breaker":
			full = r
		}
	}
	if base < 0 || full < 0 {
		t.Fatal("availability table is missing the none / retry+hedge+breaker rows")
	}
	const okCol, sloCol = 2, 3
	if cell(base, okCol) >= 100 {
		t.Fatalf("no-recovery baseline served %.1f%% at 5%% faults; chaos is not biting", cell(base, okCol))
	}
	if got, want := cell(full, okCol), cell(base, okCol); got <= want {
		t.Errorf("full recovery ok_pct = %.1f, not above baseline %.1f", got, want)
	}
	if got, want := cell(full, sloCol), cell(base, sloCol); got <= want {
		t.Errorf("full recovery slo_pct = %.1f, not above baseline %.1f", got, want)
	}
}
