package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"

	conduit "conduit"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/csv-all-scale*.golden")

// TestCSVAllGolden pins every simulated table: what `experiments -csv
// all` prints at scales 1 and 2 must match testdata/csv-all-scale<N>.golden
// byte for byte. Regenerate the files (-update-golden, or make golden)
// only for a deliberate change to the model.
func TestCSVAllGolden(t *testing.T) {
	for _, scale := range []int{1, 2} {
		o := declare(flag.NewFlagSet("experiments", flag.ContinueOnError))
		o.scale, o.csv = scale, true
		var got bytes.Buffer
		if code := run(o, "all", &got); code != 0 {
			t.Fatalf("scale %d: run exited %d", scale, code)
		}
		path := fmt.Sprintf("testdata/csv-all-scale%d.golden", scale)
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("-csv all at scale %d differs from %s (regenerate it only for a deliberate model change):\n%s",
				scale, path, got.String())
		}
	}
}

// TestFlagSurface pins every flag name and default of cmd/experiments
// (the serving binaries' are pinned in internal/drive).
func TestFlagSurface(t *testing.T) {
	const want = `arrival=poisson availreq=200 cpuprofile= csv=false faultrates=0,0.02,0.05,0.1
		fig10window=12000 loaddur=300ms loads=100,200,400 lpolicies=Conduit memprofile=
		scale=2 shards=4 slo=50ms workers=0`
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	declare(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if g, w := strings.Join(got, " "), strings.Join(strings.Fields(want), " "); g != w {
		t.Errorf("experiments flag surface changed:\n got: %s\nwant: %s", g, w)
	}
}

func TestFlagLists(t *testing.T) {
	o := declare(flag.NewFlagSet("experiments", flag.ContinueOnError))
	lat, err := o.latency()
	if err != nil || len(lat.Loads) != 3 || lat.Loads[2] != 400 || lat.Policies[0] != "Conduit" {
		t.Errorf("default latency options = %+v, %v", lat, err)
	}
	av, err := o.availability()
	if err != nil || len(av.FaultRates) != 4 || av.FaultRates[0] != 0 || av.Requests != 200 {
		t.Errorf("default availability options = %+v, %v", av, err)
	}
	o.loads, o.faultrates = "100, 0", "0.1,-1"
	if _, err := o.latency(); err == nil {
		t.Error("latency accepted a zero offered load")
	}
	if _, err := o.availability(); err == nil {
		t.Error("availability accepted a negative fault rate")
	}
}

// TestUsageListsEveryExperiment: the package doc's usage line lists
// exactly the experiments run accepts, "all" included.
func TestUsageListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var usage string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if strings.HasPrefix(line, "\texperiments ") {
			usage = line
		}
	}
	i := strings.LastIndex(usage, "[")
	if i < 0 || !strings.HasSuffix(usage, "]") {
		t.Fatalf("no [exp|...] list on the usage line %q", usage)
	}
	listed := strings.Split(usage[i+1:len(usage)-1], "|")
	accepted := []string{"all"}
	o := declare(flag.NewFlagSet("experiments", flag.ContinueOnError))
	for _, x := range experiments(conduit.NewExperiments(conduit.DefaultConfig(), 1), o) {
		accepted = append(accepted, x.name)
	}
	sort.Strings(listed)
	sort.Strings(accepted)
	if g, w := strings.Join(listed, "|"), strings.Join(accepted, "|"); g != w {
		t.Errorf("usage line lists %s, run accepts %s", g, w)
	}
}
