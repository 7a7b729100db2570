package loadgen

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"conduit/internal/jsonl"
)

func sampleSchedule(t *testing.T) []Event {
	t.Helper()
	evs, err := Generate(Spec{
		Arrival: "burst", QPS: 3000, Duration: 100 * time.Millisecond,
		Seed: 11, Tenants: 2,
		Workloads: []string{"aes", "llama2-inference"},
		Policies:  []string{"Conduit", "DM-Offloading"},
		SLO:       25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) < 10 {
		t.Fatalf("schedule too small for a meaningful test: %d events", len(evs))
	}
	return evs
}

// TestTraceRoundTrip: a schedule round-trips through the JSONL codec,
// in memory and through the file helpers, one event per line with
// durations as integer nanoseconds.
func TestTraceRoundTrip(t *testing.T) {
	evs := sampleSchedule(t)
	var buf bytes.Buffer
	if err := jsonl.Write(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(evs) {
		t.Fatalf("trace has %d lines for %d events", lines, len(evs))
	}
	got, err := jsonl.Read[Event](&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("in-memory trace round-trip lost information")
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := jsonl.WriteFile(path, evs); err != nil {
		t.Fatal(err)
	}
	got, err = jsonl.ReadFile[Event](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("file trace round-trip lost information")
	}

	buf.Reset()
	one := []Event{{At: 1500000, Tenant: "tenant-00", Workload: "aes", Policy: "Conduit", Deadline: 2 * time.Millisecond}}
	if err := jsonl.Write(&buf, one); err != nil {
		t.Fatal(err)
	}
	const want = `{"at":1500000,"tenant":"tenant-00","workload":"aes","policy":"Conduit","deadline":2000000}` + "\n"
	if buf.String() != want {
		t.Fatalf("trace line = %s, want %s", buf.String(), want)
	}
}

// TestReplayReproducesSequence is the replay-determinism pin: replaying a
// schedule re-issues the identical request sequence — every field, in
// order — regardless of replay speed, including through a
// record->write->read round trip.
func TestReplayReproducesSequence(t *testing.T) {
	evs := sampleSchedule(t)
	for _, speed := range []float64{0, 1000} { // 0 selects exact spacing
		if speed == 0 {
			// Exact spacing of a 100ms schedule is too slow for a unit
			// test loop; compress the schedule instead of skipping it.
			compressed := make([]Event, len(evs))
			copy(compressed, evs)
			for i := range compressed {
				compressed[i].At /= 50
			}
			var got []Event
			Replay(compressed, speed, func(ev Event) { got = append(got, ev) })
			if !reflect.DeepEqual(got, compressed) {
				t.Fatal("exact-spacing replay did not reproduce the sequence")
			}
			continue
		}
		var got []Event
		Replay(evs, speed, func(ev Event) { got = append(got, ev) })
		if !reflect.DeepEqual(got, evs) {
			t.Fatalf("replay at speed %v did not reproduce the sequence", speed)
		}
	}

	// Round trip through the trace format, then replay: still identical.
	var buf bytes.Buffer
	if err := jsonl.Write(&buf, evs); err != nil {
		t.Fatal(err)
	}
	loaded, err := jsonl.Read[Event](&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	Replay(loaded, 1e6, func(ev Event) { got = append(got, ev) })
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("record -> trace -> replay did not reproduce the sequence")
	}
}

// TestReplayPacing: replay takes at least the scaled span of the
// schedule (sleeps guarantee a lower bound; upper bounds would flake).
func TestReplayPacing(t *testing.T) {
	evs := []Event{
		{At: 0, Tenant: "t", Workload: "w", Policy: "p"},
		{At: 40 * time.Millisecond, Tenant: "t", Workload: "w", Policy: "p"},
	}
	start := time.Now()
	Replay(evs, 2, func(Event) {}) // 40ms span at 2x -> >= 20ms
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("replay finished in %v, want >= 20ms of pacing", elapsed)
	}
}

// TestRecorderCapturesAndSorts: concurrent Records all survive, and
// Events returns them ordered by observed offset so the trace is a
// canonical artifact.
func TestRecorderCapturesAndSorts(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				rec.Record("t", "w", "Conduit", time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	evs := rec.Events()
	if len(evs) != 200 {
		t.Fatalf("recorded %d events, want 200", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("recorded trace not sorted by offset")
		}
	}
	if evs[0].Deadline != time.Millisecond || evs[0].Workload != "w" {
		t.Fatalf("recorded event lost fields: %+v", evs[0])
	}
}

// TestDriveTallyAndOrder drives a schedule through a fake submitter: the
// issue order is the schedule order, a refused submission is tallied at
// the door and never waited on, every admitted one is waited on exactly
// once, and the tally adds up.
func TestDriveTallyAndOrder(t *testing.T) {
	outcomes := []Outcome{Served, Shed, Expired, Failed, Served, Shed, Served}
	events := make([]Event, len(outcomes))
	for i := range events {
		events[i] = Event{Tenant: fmt.Sprint(i)} // zero offsets: no pacing sleeps
	}
	var issued []string
	waited := make([]int, len(outcomes))
	tally := Drive(events, 1, func(ev Event) (func() Outcome, Outcome) {
		i := len(issued)
		issued = append(issued, ev.Tenant)
		if outcomes[i] == Shed {
			return nil, Shed
		}
		return func() Outcome { waited[i]++; return outcomes[i] }, 0
	})
	for i, got := range issued {
		if got != fmt.Sprint(i) {
			t.Fatalf("issue order = %v, want schedule order", issued)
		}
	}
	for i, n := range waited {
		want := 1
		if outcomes[i] == Shed {
			want = 0
		}
		if n != want {
			t.Errorf("event %d (outcome %d) waited on %d times, want %d", i, outcomes[i], n, want)
		}
	}
	tally.Elapsed = 0
	if want := (Tally{Offered: 7, Served: 3, Shed: 2, Expired: 1, Failed: 1}); tally != want {
		t.Errorf("tally = %+v, want %+v", tally, want)
	}
}
