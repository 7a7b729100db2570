package wiretest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"conduit/internal/loadgen"
	"conduit/internal/metrics"
	"conduit/internal/router"
	"conduit/internal/serve"
	"conduit/internal/wire"
)

// TestTwoTargetPlacementAndMerge: a two-target fleet places each
// workload on its consistent-hash home, and the fleet scrape is the
// exact Registry.Add merge of the per-target snapshots.
func TestTwoTargetPlacementAndMerge(t *testing.T) {
	names := resolveNames(t, []string{"aes", "jacobi-1d"})
	events := equivSchedule(t, 20, names)

	t0 := startTarget(t, "-name", "t0", "-mix", "aes,jacobi-1d", "-scale", "1", "-prefork", "0")
	t1 := startTarget(t, "-name", "t1", "-mix", "aes,jacobi-1d", "-scale", "1", "-prefork", "0")
	rt := dialFleet(t, router.Options{Retries: 2}, t0, t1)

	homes := map[string]string{}
	for _, w := range names {
		homes[w] = rt.Home(w)
	}

	for i, ev := range events {
		resp, from, err := rt.Do(wire.Request{Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Code != wire.CodeOK {
			t.Fatalf("request %d: code %v (%s)", i, resp.Code, resp.Error)
		}
		if from != homes[ev.Workload] {
			t.Errorf("request %d (%s) served by %s, home is %s", i, ev.Workload, from, homes[ev.Workload])
		}
	}

	fleet, missing := rt.Snapshot()
	if len(missing) != 0 {
		t.Fatalf("snapshot missing targets: %v", missing)
	}
	// Each target's own snapshot, polled over a connection of its own.
	var raw [2][]metrics.Sample
	for i, ft := range []*fleetTarget{t0, t1} {
		c, err := router.Dial(ft.addr)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := c.Snapshot()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = snap.Samples
	}
	a, b := metrics.Relabel(raw[0], "target", "t0"), metrics.Relabel(raw[1], "target", "t1")

	// Registry.Add merges in either order (commutativity) and any grouping
	// (associativity) to the same bytes — on the raw scrapes, whose tenant
	// series collide and sum, and on the relabelled ones.
	for _, pair := range [][2][]metrics.Sample{raw, {a, b}} {
		x, y := pair[0], pair[1]
		ab := encodeScrape(merge(x, y))
		if !bytes.Equal(ab, encodeScrape(merge(y, x))) || !bytes.Equal(ab, encodeScrape(merge(merge(x), y))) {
			t.Error("Registry.Add merge is order- or grouping-dependent")
		}
	}
	// The fleet scrape is that merge, beside the router's own series, and
	// renders the same tenant table as the union of the two targets.
	var targets []metrics.Sample
	for _, s := range fleet {
		if !strings.HasPrefix(s.Name, "conduit_router_") {
			targets = append(targets, s)
		}
	}
	if !bytes.Equal(encodeScrape(targets), encodeScrape(merge(a, b))) {
		t.Error("fleet scrape is not the merge of its per-target snapshots")
	}
	if got, want := serve.Report("", fleet).String(), serve.Report("", merge(raw[0], raw[1])).String(); got != want {
		t.Errorf("fleet table differs from the union's\nfleet:\n%s\nunion:\n%s", got, want)
	}

	var total float64
	for _, s := range fleet {
		if s.Name == "conduit_serve_requests_total" {
			total += s.Value
		}
	}
	if total != float64(len(events)) {
		t.Errorf("merged scrape accounts %v requests, want %d", total, len(events))
	}
	if n := wallCount(fleet, "t0") + wallCount(fleet, "t1"); n != int64(len(events)) {
		t.Errorf("target wall histograms hold %d samples, want %d", n, len(events))
	}
}

// merge folds sample sets into one registry with Registry.Add.
func merge(sets ...[]metrics.Sample) []metrics.Sample {
	reg := metrics.New()
	for _, set := range sets {
		for _, s := range set {
			reg.Add(s)
		}
	}
	return reg.Snapshot()
}

// encodeScrape is a scrape's canonical bytes: a Snapshot frame with a
// fixed envelope.
func encodeScrape(samples []metrics.Sample) []byte {
	return wire.Append(nil, wire.Snapshot{ID: 1, Target: "fleet", Samples: samples})
}

// TestKillTargetMidRunFailover: SIGKILL a workload's home target mid
// run; the router must fail the connection over to the survivor and
// keep answering.
func TestKillTargetMidRunFailover(t *testing.T) {
	t0 := startTarget(t, "-name", "t0", "-mix", "aes", "-scale", "1", "-prefork", "0")
	t1 := startTarget(t, "-name", "t1", "-mix", "aes", "-scale", "1", "-prefork", "0")
	rt := dialFleet(t, router.Options{Retries: 2}, t0, t1)

	aes := resolveNames(t, []string{"aes"})[0]
	byName := map[string]*fleetTarget{"t0": t0, "t1": t1}
	home := byName[rt.Home(aes)]

	do := func(i int) wire.Response {
		t.Helper()
		resp, _, err := rt.Do(wire.Request{Tenant: "t", Workload: aes, Policy: "Conduit"})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		return resp
	}
	before := do(0)
	if before.Code != wire.CodeOK {
		t.Fatalf("warmup request failed: %v (%s)", before.Code, before.Error)
	}

	home.kill()

	for i := 1; i <= 4; i++ {
		resp := do(i)
		if resp.Code != wire.CodeOK {
			t.Fatalf("request %d after kill: code %v (%s)", i, resp.Code, resp.Error)
		}
		// The survivor computes the identical deterministic result.
		if resp.ElapsedSimNS != before.ElapsedSimNS || resp.EnergyJ != before.EnergyJ {
			t.Errorf("request %d after failover changed the simulated outcome: %+v vs %+v",
				i, resp, before)
		}
	}
	if s := rt.Stats(); s.Retries < 1 {
		t.Errorf("failover recorded no retries: %+v", s)
	}
	if _, missing := rt.Snapshot(); len(missing) != 1 {
		t.Errorf("snapshot should miss exactly the killed target, missed %v", missing)
	}
}

// chaosRun drives one lock-step schedule through a fresh single-target
// fleet replaying the given fault schedule, with router breakers armed,
// and returns the observable sequence: per-request outcome labels plus
// final router stats and breaker trips.
func chaosRun(t *testing.T, faultLog string, events []loadgen.Event) ([]string, router.Stats, int64) {
	t.Helper()
	ft := startTarget(t, "-name", "chaos", "-mix", "aes", "-scale", "1",
		"-concurrency", "1", "-prefork", "0", "-faultreplay", faultLog, "-retries", "1")
	rt := dialFleet(t, router.Options{Retries: 1, BreakerThreshold: 2, BreakerCooldown: 2}, ft)

	var seq []string
	for _, ev := range events {
		resp, _, err := rt.Do(wire.Request{Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy})
		switch {
		case errors.Is(err, router.ErrBreakerOpen) || (err != nil && errors.Is(err, router.ErrNoTargets)):
			seq = append(seq, "refused")
		case err != nil:
			t.Fatalf("unexpected transport error: %v", err)
		default:
			seq = append(seq, fmt.Sprintf("code=%d", resp.Code))
		}
	}
	var trips int64
	for _, b := range rt.Breakers() {
		trips += b.Trips
	}
	return seq, rt.Stats(), trips
}

// TestBreakerTripsDeterministicUnderFaultReplay: record a fault
// schedule once, then replay it into two fresh fleets; the router's
// breaker trips, refusal pattern, and stats must be identical runs —
// cooldown is counted in requests, not wall time, so chaos recovery is
// as replayable across processes as it is inside one.
func TestBreakerTripsDeterministicUnderFaultReplay(t *testing.T) {
	events := equivSchedule(t, 24, []string{"aes"})
	logPath := t.TempDir() + "/faults.jsonl"

	// Record: a high fault rate with a single attempt per request, so
	// injected faults surface as response errors.
	rec := startTarget(t, "-name", "rec", "-mix", "aes", "-scale", "1",
		"-concurrency", "1", "-prefork", "0", "-faults", "0.9", "-faultseed", "5",
		"-retries", "1", "-faultlog", logPath)
	rtRec := dialFleet(t, router.Options{Retries: 1}, rec)
	sawError := false
	for _, ev := range events {
		resp, _, err := rtRec.Do(wire.Request{Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy})
		if err == nil && resp.Code == wire.CodeError {
			sawError = true
		}
	}
	rtRec.DrainAll() // flushes the fault log before acking
	if !sawError {
		t.Fatal("recording run produced no injected errors; raise the rate")
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() == 0 {
		t.Fatalf("fault log not written: %v", err)
	}

	seq1, stats1, trips1 := chaosRun(t, logPath, events)
	seq2, stats2, trips2 := chaosRun(t, logPath, events)

	if trips1 < 1 {
		t.Errorf("replayed chaos never tripped the router breaker (stats %+v, seq %v)", stats1, seq1)
	}
	if fmt.Sprint(seq1) != fmt.Sprint(seq2) {
		t.Errorf("outcome sequences differ across identical replays\nrun1: %v\nrun2: %v", seq1, seq2)
	}
	if stats1 != stats2 {
		t.Errorf("router stats differ across identical replays\nrun1: %+v\nrun2: %+v", stats1, stats2)
	}
	if trips1 != trips2 {
		t.Errorf("breaker trips differ across identical replays: %d vs %d", trips1, trips2)
	}
}

// TestDrainDuringTrafficNoLeakedForks is the -race workout for the
// router <-> target path: concurrent clients hammer a two-target fleet
// with pooling enabled while one target is gracefully SIGTERMed mid
// run. Traffic must keep succeeding (failover), the drained target
// must exit cleanly, and after DrainAll no device pool anywhere may
// hold a fork: the Idle a target acknowledges counts its buffered forks
// and the used devices parked on the deployment's free list alike, so
// zero means the requests that were in flight when the drain began did
// not leave their devices behind either.
func TestDrainDuringTrafficNoLeakedForks(t *testing.T) {
	t0 := startTarget(t, "-name", "t0", "-mix", "aes", "-scale", "1",
		"-prefork", "2", "-concurrency", "4")
	t1 := startTarget(t, "-name", "t1", "-mix", "aes", "-scale", "1",
		"-prefork", "2", "-concurrency", "4")
	rt := dialFleet(t, router.Options{Retries: 3}, t0, t1)

	aes := resolveNames(t, []string{"aes"})[0]
	// Drain the target actually serving the traffic, so failover (not
	// placement luck) is what keeps requests succeeding.
	byName := map[string]*fleetTarget{"t0": t0, "t1": t1}
	home, other := byName[rt.Home(aes)], t1
	if home == t1 {
		other = t0
	}
	const clients, perClient = 4, 40
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		ok      int
		failed  int
		started = make(chan struct{})
		once    sync.Once
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, _, err := rt.Do(wire.Request{
					Tenant: fmt.Sprintf("tenant-%02d", c), Workload: aes, Policy: "Conduit",
				})
				mu.Lock()
				if err == nil && resp.Code == wire.CodeOK {
					ok++
					if ok >= 8 {
						once.Do(func() { close(started) })
					}
				} else {
					failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	// Once traffic is demonstrably flowing, gracefully drain the home
	// target while the bulk of the run is still in flight.
	<-started
	home.sigterm()
	wg.Wait()

	if err := home.waitExit(30 * time.Second); err != nil {
		t.Errorf("SIGTERMed target exited non-zero: %v", err)
	}
	if ok == 0 {
		t.Fatalf("no request succeeded (%d failed)", failed)
	}

	acks := rt.DrainAll()
	if len(acks) == 0 {
		t.Fatal("no drain acks from the fleet")
	}
	for _, td := range acks {
		for _, p := range td.Ack.Pools {
			if !p.Closed {
				t.Errorf("target %s: pool %s not closed after drain", td.Target, p.Name)
			}
			if p.Idle != 0 {
				t.Errorf("target %s: pool %s leaked %d buffered or parked fork(s) after drain", td.Target, p.Name, p.Idle)
			}
		}
	}
	if err := other.waitExit(30 * time.Second); err != nil {
		t.Errorf("drained target exited non-zero: %v", err)
	}
	t.Logf("traffic: %d ok, %d failed during drain; stats %+v", ok, failed, rt.Stats())
}
