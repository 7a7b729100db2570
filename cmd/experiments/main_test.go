package main

import (
	"flag"
	"strings"
	"testing"
)

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
