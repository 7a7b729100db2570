package energy

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestAccountTotals(t *testing.T) {
	a := NewAccount()
	a.Compute("ifp", 1e-6)
	a.Compute("ifp", 2e-6)
	a.Compute("isp", 1e-6)
	a.Move("flash-channel", 5e-6)
	a.Move("pcie", 1e-6)

	if got := a.ComputeBy("ifp"); math.Abs(got-3e-6) > 1e-18 {
		t.Errorf("ComputeBy(ifp) = %v, want 3µJ", got)
	}
	if got := a.ComputeTotal(); math.Abs(got-4e-6) > 1e-18 {
		t.Errorf("ComputeTotal = %v, want 4µJ", got)
	}
	if got := a.MovementTotal(); math.Abs(got-6e-6) > 1e-18 {
		t.Errorf("MovementTotal = %v, want 6µJ", got)
	}
	if got := a.Total(); math.Abs(got-10e-6) > 1e-18 {
		t.Errorf("Total = %v, want 10µJ", got)
	}
}

func TestAccountKeysSorted(t *testing.T) {
	a := NewAccount()
	a.Compute("z", 1)
	a.Compute("a", 1)
	a.Move("m", 1)
	srcs := a.Sources()
	if len(srcs) != 2 || srcs[0] != "a" || srcs[1] != "z" {
		t.Fatalf("Sources = %v, want sorted [a z]", srcs)
	}
	if paths := a.Paths(); len(paths) != 1 || paths[0] != "m" {
		t.Fatalf("Paths = %v", paths)
	}
}

func TestAccountReset(t *testing.T) {
	a := NewAccount()
	a.Compute("x", 1)
	a.Move("y", 1)
	a.Reset()
	if a.Total() != 0 {
		t.Fatal("Reset did not clear the account")
	}
}

func TestNegativeEnergyPanics(t *testing.T) {
	a := NewAccount()
	defer func() {
		if recover() == nil {
			t.Fatal("negative energy should panic")
		}
	}()
	a.Compute("x", -1)
}

// mapAccount is the model the ledger replaced: one map per side, totals
// summed in sorted key order.
type mapAccount struct{ compute, movement map[string]float64 }

func newMapAccount() *mapAccount {
	return &mapAccount{map[string]float64{}, map[string]float64{}}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedTotal(m map[string]float64) float64 {
	var sum float64
	for _, k := range sortedKeys(m) {
		sum += m[k]
	}
	return sum
}

func requireSameAsModel(t *testing.T, step int, a *Account, m *mapAccount) {
	t.Helper()
	if got, want := a.ComputeTotal(), sortedTotal(m.compute); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: ComputeTotal %v, sorted-key sum %v", step, got, want)
	}
	if got, want := a.MovementTotal(), sortedTotal(m.movement); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: MovementTotal %v, sorted-key sum %v", step, got, want)
	}
	if got, want := a.Sources(), sortedKeys(m.compute); !slices.Equal(got, want) {
		t.Fatalf("step %d: Sources %v, want %v", step, got, want)
	}
	if got, want := a.Paths(), sortedKeys(m.movement); !slices.Equal(got, want) {
		t.Fatalf("step %d: Paths %v, want %v", step, got, want)
	}
	for _, k := range a.Sources() {
		if a.ComputeBy(k) != m.compute[k] {
			t.Fatalf("step %d: ComputeBy(%q) = %v, want %v", step, k, a.ComputeBy(k), m.compute[k])
		}
	}
	for _, k := range a.Paths() {
		if a.MoveBy(k) != m.movement[k] {
			t.Fatalf("step %d: MoveBy(%q) = %v, want %v", step, k, a.MoveBy(k), m.movement[k])
		}
	}
}

// TestLedgerMatchesMapModel drives random Compute/Move/Clone/Reset
// sequences through an Account and through the map-based model it
// replaced: totals must equal sorted-key summation to the last bit, names
// stay sorted, an entry charged zero joules is still listed, and a clone
// is independent of its original.
func TestLedgerMatchesMapModel(t *testing.T) {
	names := []string{"pud", "isp", "ifp", "cpu", "gpu", "flash-channel", "dram-bus", "pcie", ""}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, m := NewAccount(), newMapAccount()
		for step := 0; step < 400; step++ {
			name := names[rng.Intn(len(names))]
			j := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-9))
			if rng.Intn(8) == 0 {
				j = 0
			}
			switch op := rng.Intn(20); {
			case op < 9:
				a.Compute(name, j)
				m.compute[name] += j
			case op < 18:
				a.Move(name, j)
				m.movement[name] += j
			case op == 18:
				// Keep charging the original; the copy — restored into a
				// zero account or over a used one — must not move.
				c, cm := NewAccount(), newMapAccount()
				if step%2 == 0 {
					c.Compute("stale", 1)
					c.Move(name, 2)
				}
				c.Restore(a)
				maps.Copy(cm.compute, m.compute)
				maps.Copy(cm.movement, m.movement)
				a.Compute(name, j)
				a.Move("zz-"+name, j)
				m.compute[name] += j
				m.movement["zz-"+name] += j
				requireSameAsModel(t, step, c, cm)
			default:
				a.Reset()
				m = newMapAccount()
			}
			requireSameAsModel(t, step, a, m)
		}
	}
}
