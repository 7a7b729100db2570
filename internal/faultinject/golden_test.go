package faultinject

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/faults.golden.jsonl")

// goldenCases are the configs the golden fault log records: mixed rates
// with every kind firing, every rate 1 (the first kind of each seam wins
// every draw), a 1x SlowFactor (a slow draw is then no fault, and a shard
// failure carries slowdown 1), and zero rates (draws, injects nothing).
var goldenCases = []struct {
	name string
	cfg  Config
}{
	{"mixed", Config{Seed: 30, ShardFail: 0.2, SlowShard: 0.25, SlowFactor: 3, PanicRate: 0.1,
		ForkFail: 0.1, PoisonFork: 0.15, BackendError: 0.15}},
	{"all-one", Config{Seed: 31, ShardFail: 1, SlowShard: 1, PanicRate: 1,
		ForkFail: 1, PoisonFork: 1, BackendError: 1}},
	{"slow-factor-1", Config{Seed: 32, ShardFail: 0.3, SlowShard: 0.6, SlowFactor: 1, PanicRate: 0.1,
		ForkFail: 0.2, PoisonFork: 0.3, BackendError: 0.2}},
	{"zero", Config{Seed: 33}},
}

// goldenSchedule draws every seam over two workloads, two shards and
// attempts 1-3.
func goldenSchedule(in *Injector) {
	for req := 0; req < 12; req++ {
		workload := []string{"aes", "jacobi-1d"}[req%2]
		for attempt := 1; attempt <= 3; attempt++ {
			drawSeams(in, workload, 2, attempt)
		}
	}
}

// TestFaultLogGolden re-renders testdata/faults.golden.jsonl byte for
// byte: each case's header line, then the fault log its config draws
// over goldenSchedule. The last case replays the first case's log with
// one record per seam whose kind belongs to another seam; the replay
// must ignore those records, not inject or re-record them, so its log is
// the recorded one. The golden pins site names, draw order, precedence
// and the log's JSON fields; regenerate it (-update-golden) only for a
// deliberate change to what a seed injects.
func TestFaultLogGolden(t *testing.T) {
	var buf bytes.Buffer
	render := func(name string, in *Injector) []Fault {
		goldenSchedule(in)
		log := in.Log()
		fmt.Fprintf(&buf, "{\"case\":%q}\n", name)
		if err := writeLog(&buf, log); err != nil {
			t.Fatal(err)
		}
		return log
	}
	var recorded []Fault
	for i, c := range goldenCases {
		if log := render(c.name, New(c.cfg)); i == 0 {
			recorded = log
		}
	}
	foreign := []Fault{
		{Site: "serve|aes", Kind: KindSlow, Workload: "aes", Attempt: 1, Slowdown: 2},
		{Site: "pool|aes#0", Kind: KindPanic, Workload: "aes", Attempt: 1},
		{Site: "dev|jacobi-1d#1", Kind: KindPoison, Workload: "jacobi-1d", Shard: 1, Attempt: 1},
	}
	replay := append([]Fault(nil), recorded...)
	for _, f := range foreign {
		// The first sequence number at the site the recorded log left
		// fault-free, so the foreign record is the only one there.
		for f.SiteSeq = 0; hasFault(recorded, f.Site, f.SiteSeq); f.SiteSeq++ {
		}
		replay = append(replay, f)
	}
	if got := render("replay mixed", NewReplay(replay)); len(got) != len(recorded) {
		t.Errorf("replay logged %d faults, the recorded run %d", len(got), len(recorded))
	}

	const path = "testdata/faults.golden.jsonl"
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("fault log differs from %s (regenerate it only for a deliberate change to what a seed injects):\n%s", path, buf.String())
	}
}

func hasFault(log []Fault, site string, seq int64) bool {
	for _, f := range log {
		if f.Site == site && f.SiteSeq == seq {
			return true
		}
	}
	return false
}
