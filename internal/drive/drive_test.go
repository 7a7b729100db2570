package drive

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// surface pins every flag name and default of the three serving binaries
// (cmd/experiments pins its own): a flag added, dropped, renamed or
// re-defaulted must change this table in the same commit.
var surface = map[Binary]string{
	Serve: `arrival=poisson breaker=0 clients=32 coalesce=true concurrency=0 duration=2s
		fallback= faultlog= faultreplay= faults=0 faultseed=42 hedge=false hedgethreshold=8
		list=false metrics= mix=all open=0 policies=Conduit prefork=2 queue=0
		record= replay= retries=3 scale=1 seed=1 shards=1 slo=0s speed=1 tenants=4 trace=
		tracejsonl= tracesample=0`,
	Target: `breaker=0 coalesce=true concurrency=0 fallback= faultlog= faultreplay= faults=0
		faultseed=42 hedge=false hedgethreshold=8 listen=127.0.0.1:0 mix=all
		name=target prefork=2 queue=0 retries=3 scale=1 shards=1 tracesample=0`,
	Router: `arrival=poisson breaker=0 cooldown=8 drain=true duration=2s hedge=false
		hedgeafter=50ms metrics= mix=all open=200 policies=Conduit retries=3 seed=1 slo=0s
		targets= tenants=4 trace= tracesample=0`,
}

var binaryNames = map[Binary]string{Serve: "conduit-serve", Target: "conduit-target", Router: "conduit-router"}

func declared(bin Binary) *flag.FlagSet {
	fs := flag.NewFlagSet(binaryNames[bin], flag.ContinueOnError)
	Declare(fs, bin)
	return fs
}

func TestFlagSurface(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for bin, want := range surface {
		var got []string
		table := "| flag | default | meaning |\n|---|---|---|\n"
		declared(bin).VisitAll(func(f *flag.Flag) { // lexical order
			got = append(got, f.Name+"="+f.DefValue)
			def := f.DefValue
			if def == "" {
				def = `""`
			}
			_, usage := flag.UnquoteUsage(f)
			table += fmt.Sprintf("| `-%s` | `%s` | %s |\n", f.Name, def, strings.ReplaceAll(usage, "|", "\\|"))
		})
		if w := strings.Fields(want); !sort.StringsAreSorted(w) || strings.Join(got, " ") != strings.Join(w, " ") {
			t.Errorf("%s flag surface changed:\n got: %s\nwant: %s", binaryNames[bin], strings.Join(got, " "), strings.Join(w, " "))
		}
		// README's flag tables are generated from the declarations: on a
		// mismatch, paste the expected block over the binary's table.
		if !strings.Contains(string(readme), table) {
			t.Errorf("README.md flag table for %s is out of date; want:\n%s", binaryNames[bin], table)
		}
	}
}

func parse(t *testing.T, bin Binary, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet(binaryNames[bin], flag.ContinueOnError)
	f := Declare(fs, bin)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMixesAreTrimmedAndValidated(t *testing.T) {
	f := parse(t, Router, "-policies", "Conduit, ISP ,IFP+ISP", "-mix", " aes, jacobi-1d,aes")
	if got, err := f.PolicyMix(); err != nil || strings.Join(got, "|") != "Conduit|ISP|IFP+ISP" {
		t.Errorf("PolicyMix = %q, %v", got, err)
	}
	if got, err := f.Workloads(); err != nil || strings.Join(got, "|") != "AES|jacobi-1d" {
		t.Errorf("Workloads = %q, %v", got, err)
	}
	if _, err := parse(t, Router, "-policies", "Conduit,ISP-ish").PolicyMix(); err == nil {
		t.Error("PolicyMix accepted an unknown policy")
	}
	if _, err := parse(t, Serve, "-mix", "aes,no-such").Workloads(); err == nil {
		t.Error("Workloads accepted an unknown workload")
	}
	if got, err := parse(t, Target).Workloads(); err != nil || len(got) != 6 {
		t.Errorf(`Workloads for -mix all = %q, %v; want the six-workload suite`, got, err)
	}
}

func TestServeOptions(t *testing.T) {
	opts, err := parse(t, Target, "-prefork", "3", "-retries", "5", "-hedge").ServeOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Prefork != 3 || !opts.Coalesce || opts.Faults != nil || opts.ReplayFaults != nil ||
		opts.Recovery.MaxAttempts != 0 || opts.Recovery.HedgeThreshold != 0 {
		t.Errorf("fault-free options = %+v; recovery flags must wait for chaos", opts)
	}
	opts, err = parse(t, Serve, "-faults", "0.1", "-faultseed", "7", "-breaker", "4", "-fallback", "CPU", "-hedge").ServeOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Faults == nil || opts.Faults.Seed != 7 || opts.Recovery.MaxAttempts != 3 ||
		opts.Recovery.HedgeThreshold != 8 || opts.Recovery.BreakerThreshold != 4 || opts.Recovery.FallbackPolicy != "CPU" {
		t.Errorf("chaos options = %+v (faults %+v)", opts, opts.Faults)
	}
	// The threshold arms the shard hedge: none without -hedge, and 2 for a
	// -hedgethreshold at or below 1.
	for _, c := range []struct {
		args []string
		want float64
	}{
		{[]string{"-faults", "0.1"}, 0},
		{[]string{"-faults", "0.1", "-hedge", "-hedgethreshold", "3"}, 3},
		{[]string{"-faults", "0.1", "-hedge", "-hedgethreshold", "1"}, 2},
	} {
		if opts, err := parse(t, Serve, c.args...).ServeOptions(); err != nil || opts.Recovery.HedgeThreshold != c.want {
			t.Errorf("%q: HedgeThreshold = %v, %v; want %v", c.args, opts.Recovery.HedgeThreshold, err, c.want)
		}
	}
	if _, err := parse(t, Serve, "-faults", "0.1", "-fallback", "no-such").ServeOptions(); err == nil {
		t.Error("ServeOptions accepted an unknown -fallback policy")
	}
	if _, err := parse(t, Serve, "-faultreplay", t.TempDir()+"/missing.jsonl").ServeOptions(); err == nil {
		t.Error("ServeOptions accepted an unreadable -faultreplay file")
	}
}

func TestTracing(t *testing.T) {
	now := func() time.Time { return time.Unix(0, 42) }
	if tr := parse(t, Serve).Tracing(now); tr != nil {
		t.Errorf("no trace flag set, Tracing = %+v", tr)
	}
	for _, args := range [][]string{{"-trace", "t.json"}, {"-tracejsonl", "t.jsonl"}} {
		if tr := parse(t, Serve, args...).Tracing(now); tr == nil || tr.SampleEvery != 1 || tr.Now() != 42 {
			t.Errorf("%v: Tracing = %+v, want every request on the given clock", args, tr)
		}
	}
	if tr := parse(t, Router, "-tracesample", "5").Tracing(now); tr == nil || tr.SampleEvery != 5 {
		t.Errorf("-tracesample 5: Tracing = %+v", tr)
	}
}

// usageLines returns the command lines of the "Usage:" block in the
// package doc of cmd/<name>: one entry per command, continuation lines
// joined, shell comments and a trailing "&" dropped.
func usageLines(t *testing.T, name string) [][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../../cmd/"+name+"/main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(f.Doc.Text(), "Usage:\n\n")
	if !ok {
		t.Fatalf("cmd/%s: package doc has no Usage: block", name)
	}
	var lines [][]string
	cont := false
	for _, line := range strings.Split(block, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		line, _, _ = strings.Cut(line, "#")
		line = strings.TrimSpace(line)
		next := strings.HasSuffix(line, "\\")
		fields := strings.Fields(strings.TrimSuffix(strings.TrimSuffix(line, "\\"), "&"))
		if cont {
			lines[len(lines)-1] = append(lines[len(lines)-1], fields...)
		} else {
			lines = append(lines, fields)
		}
		cont = next
	}
	return lines
}

// TestUsageLinesParse: every command line a serving binary's package doc
// shows parses through Declare for the binary it names and builds the
// options that binary builds from it.
func TestUsageLinesParse(t *testing.T) {
	bins := map[string]Binary{}
	for bin, name := range binaryNames {
		bins[name] = bin
	}
	for _, doc := range binaryNames {
		for _, line := range usageLines(t, doc) {
			bin, ok := bins[line[0]]
			if !ok {
				t.Errorf("cmd/%s usage line %q runs no serving binary", doc, strings.Join(line, " "))
				continue
			}
			fs := flag.NewFlagSet(line[0], flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Declare(fs, bin)
			if err := fs.Parse(line[1:]); err != nil {
				t.Errorf("cmd/%s usage line %q: %v", doc, strings.Join(line, " "), err)
				continue
			}
			if _, err := f.Workloads(); err != nil {
				t.Errorf("cmd/%s usage line %q: -mix: %v", doc, strings.Join(line, " "), err)
			}
			if bin != Router {
				if _, err := f.ServeOptions(); err != nil {
					t.Errorf("cmd/%s usage line %q: %v", doc, strings.Join(line, " "), err)
				}
			}
			if bin != Target {
				if _, err := f.PolicyMix(); err != nil {
					t.Errorf("cmd/%s usage line %q: -policies: %v", doc, strings.Join(line, " "), err)
				}
			}
		}
	}
}
