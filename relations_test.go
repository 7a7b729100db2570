package conduit_test

import (
	"math"
	"slices"
	"testing"

	conduit "conduit"
)

// TestModelRelations checks relations any correct model of the drive
// satisfies, whatever numbers the goldens pin, so a regenerated golden
// must still pass them. Over the six workloads at scales 1 and 2 and every
// policy of Policies and AblationPolicies:
//   - Ideal, which runs each instruction where it finishes first with no
//     contention, is at least as fast as every in-SSD policy;
//   - every in-SSD policy and Ideal decide each instruction once, so they
//     make one count of decisions per workload, and each one's Fig. 9
//     shares (Fractions) sum to 1.
func TestModelRelations(t *testing.T) {
	policies := append(conduit.Policies(), conduit.AblationPolicies()...)
	idealAt := slices.Index(policies, "Ideal")
	for _, scale := range []int{1, 2} {
		e := conduit.NewExperiments(conduit.DefaultConfig(), scale)
		grid, err := e.RunGrid(e.Workloads(), policies)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range e.Workloads() {
			ideal := grid[i][idealAt]
			for j, p := range policies {
				r := grid[i][j]
				if p == "CPU" || p == "GPU" {
					continue // host baselines: no drive, no decisions
				}
				if ideal.Elapsed > r.Elapsed {
					t.Errorf("%s scale %d: Ideal takes %d ns, %s only %d", w, scale, ideal.Elapsed, p, r.Elapsed)
				}
				if len(r.Decisions) != len(ideal.Decisions) || len(r.Decisions) == 0 {
					t.Errorf("%s scale %d: %s makes %d decisions, Ideal %d", w, scale, p, len(r.Decisions), len(ideal.Decisions))
				}
				sum := 0.0
				for _, f := range conduit.Fractions(r.Decisions) {
					sum += f
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s scale %d: %s's resource shares sum to %v", w, scale, p, sum)
				}
			}
		}
	}
}
