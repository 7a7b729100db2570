package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	conduit "conduit"
	"conduit/internal/stats"
	"conduit/internal/wire"
	"conduit/internal/workloads"
)

//go:embed testdata/sim_golden.json
var goldenJSON []byte

// cell is the simulated result of one (workload, scale, policy): what
// every response for that request must carry, whichever path served it.
// All fields are simulated quantities and repeat exactly.
type cell struct {
	Workload   string                      `json:"workload"`
	Scale      int                         `json:"scale"`
	Policy     string                      `json:"policy"`
	ElapsedNS  int64                       `json:"elapsed_sim_ns"`
	EnergyJ    float64                     `json:"energy_j"`
	Insts      int64                       `json:"insts"`
	OverheadNS int64                       `json:"overhead_sim_ns"`
	Offloaded  [conduit.NumResources]int64 `json:"offloaded_isp_pud_ifp"`
	Counters   map[string]int64            `json:"counters,omitempty"`
}

type cellKey struct {
	workload string
	scale    int
	policy   string
}

func (c cell) key() cellKey { return cellKey{c.Workload, c.Scale, c.Policy} }

// decisions is the number of offloading decisions the run made.
func (c cell) decisions() int64 {
	var n int64
	for _, v := range c.Offloaded {
		n += v
	}
	return n
}

// table is the reference table.
type table map[cellKey]cell

// cellOf summarises a run result as a cell.
func cellOf(workload string, scale int, r *conduit.RunResult) cell {
	c := cell{
		Workload:   workload,
		Scale:      scale,
		Policy:     r.Policy,
		ElapsedNS:  int64(r.Elapsed),
		EnergyJ:    r.TotalEnergy(),
		OverheadNS: int64(r.OverheadTime),
	}
	if r.InstLatencies != nil {
		c.Insts = int64(r.InstLatencies.Count())
	}
	for _, d := range r.Decisions {
		c.Offloaded[d.Resource]++
	}
	if r.Counters != nil {
		for _, name := range r.Counters.Names() {
			if c.Counters == nil {
				c.Counters = make(map[string]int64)
			}
			c.Counters[name] = r.Counters.Get(name)
		}
	}
	return c
}

// matches reports whether r is the cell, field for field. It builds
// nothing on the heap beyond the counters' name list, so that checking
// every response stays small next to the cheapest request.
func (c cell) matches(r *conduit.RunResult) bool {
	if r == nil || int64(r.Elapsed) != c.ElapsedNS || r.TotalEnergy() != c.EnergyJ ||
		int64(r.OverheadTime) != c.OverheadNS ||
		r.InstLatencies == nil || int64(r.InstLatencies.Count()) != c.Insts {
		return false
	}
	var offloaded [conduit.NumResources]int64
	for _, d := range r.Decisions {
		offloaded[d.Resource]++
	}
	if offloaded != c.Offloaded {
		return false
	}
	if r.Counters == nil {
		return len(c.Counters) == 0
	}
	names := r.Counters.Names()
	if len(names) != len(c.Counters) {
		return false
	}
	for _, name := range names {
		if v, ok := c.Counters[name]; !ok || v != r.Counters.Get(name) {
			return false
		}
	}
	return true
}

// matchesWire is matches for a response that crossed the wire, which
// carries the decision count but not its split by resource.
func (c cell) matchesWire(resp wire.Response) bool {
	res := resp.Result
	if resp.Code != wire.CodeOK || res == nil ||
		resp.ElapsedSimNS != c.ElapsedNS || resp.EnergyJ != c.EnergyJ ||
		res.OverheadNS != c.OverheadNS || res.InstCount != c.Insts ||
		res.Decisions != c.decisions() || len(res.Counters) != len(c.Counters) {
		return false
	}
	for _, ctr := range res.Counters {
		if v, ok := c.Counters[ctr.Name]; !ok || v != ctr.Value {
			return false
		}
	}
	return true
}

// goldenKeys lists every cell the benchmark's workloads can request, in
// the order the golden file stores them: each workload's request space
// plus the CPU and Conduit cells its simulated speed-up needs, and the
// whole sweep grid.
func goldenKeys() []cellKey {
	seen := make(map[cellKey]bool)
	var keys []cellKey
	for _, w := range allWorkloads() {
		for _, k := range w.keys() {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// keys lists the cells one workload needs.
func (w *workload) keys() []cellKey {
	pols := append([]string{"CPU"}, w.Policies...)
	if w.Kind == kindSweep {
		pols = conduit.Policies()
	}
	var keys []cellKey
	for _, name := range w.Mix {
		for _, p := range pols {
			keys = append(keys, cellKey{name, w.Scale, p})
		}
	}
	return keys
}

// computeTable builds the reference cells for keys through a path no
// workload uses: System.RunCompiled, which deploys over the full NVMe
// path for every cell instead of forking a deployment.
func computeTable(keys []cellKey) (table, error) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	type source struct {
		workload string
		scale    int
	}
	compiled := make(map[source]*conduit.Compiled)
	t := make(table, len(keys))
	for _, k := range keys {
		ck := source{k.workload, k.scale}
		c := compiled[ck]
		if c == nil {
			nw, ok := workloads.Find(k.workload, k.scale)
			if !ok {
				return nil, fmt.Errorf("golden: unknown workload %q", k.workload)
			}
			var err error
			if c, err = conduit.Compile(nw.Source, &cfg); err != nil {
				return nil, fmt.Errorf("golden: compile %s: %w", k.workload, err)
			}
			compiled[ck] = c
		}
		r, err := sys.RunCompiled(c, k.policy)
		if err != nil {
			return nil, fmt.Errorf("golden: %s scale %d under %s: %w", k.workload, k.scale, k.policy, err)
		}
		t[k] = cellOf(k.workload, k.scale, r)
	}
	return t, nil
}

func parseGolden(data []byte) (table, error) {
	var cells []cell
	if err := json.Unmarshal(data, &cells); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	t := make(table, len(cells))
	for _, c := range cells {
		t[c.key()] = c
	}
	return t, nil
}

// marshalGolden renders the table's cells for keys, in keys order.
func marshalGolden(t table, keys []cellKey) ([]byte, error) {
	cells := make([]cell, 0, len(keys))
	for _, k := range keys {
		cells = append(cells, t[k])
	}
	data, err := json.MarshalIndent(cells, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// diffTables reports every key whose computed cell differs from the
// golden one (or is missing from it), sorted.
func diffTables(computed, golden table, keys []cellKey) []string {
	var diffs []string
	for _, k := range keys {
		want, ok := golden[k]
		switch got := computed[k]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s scale %d under %s: not in the golden table", k.workload, k.scale, k.policy))
		case !reflect.DeepEqual(got, want):
			diffs = append(diffs, fmt.Sprintf("%s scale %d under %s: computed %+v, golden %+v", k.workload, k.scale, k.policy, got, want))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// simSpeedup is the modelled design's headline over the workload's mix:
// the geometric mean of CPU simulated time over Conduit simulated time.
func simSpeedup(t table, w *workload) float64 {
	var xs []float64
	for _, name := range w.Mix {
		cpu, con := t[cellKey{name, w.Scale, "CPU"}], t[cellKey{name, w.Scale, "Conduit"}]
		xs = append(xs, float64(cpu.ElapsedNS)/float64(con.ElapsedNS))
	}
	return stats.GeoMean(xs)
}
