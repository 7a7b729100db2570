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
	a.Compute(IFP, 1e-6)
	a.Compute(IFP, 2e-6)
	a.Compute(ISP, 1e-6)
	a.Move(FlashChannel, 5e-6)
	a.Move(PCIe, 1e-6)

	if got := a.ComputeBy(IFP); math.Abs(got-3e-6) > 1e-18 {
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
	a.Compute(PuD, 1)
	a.Compute(CPU, 1)
	a.Move(PCIe, 1)
	srcs := a.Sources()
	if len(srcs) != 2 || srcs[0] != CPU || srcs[1] != PuD {
		t.Fatalf("Sources = %v, want sorted [CPU pud]", srcs)
	}
	if paths := a.Paths(); len(paths) != 1 || paths[0] != PCIe {
		t.Fatalf("Paths = %v", paths)
	}
	names := make([]string, numSources)
	for s := range numSources {
		names[s] = s.String()
	}
	if !slices.IsSorted(names) {
		t.Fatalf("Source constants are not in sorted name order: %v", names)
	}
}

func TestAccountReset(t *testing.T) {
	a := NewAccount()
	a.Compute(ISP, 1)
	a.Move(DRAMBus, 1)
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
	a.Compute(ISP, -1)
}

// mapAccount is the model the ledger replaced: one map per side, keyed
// by name, totals summed in sorted key order.
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

func sourceNamesOf(srcs []Source) []string {
	out := make([]string, len(srcs))
	for i, s := range srcs {
		out[i] = s.String()
	}
	return out
}

func requireSameAsModel(t *testing.T, step int, a *Account, m *mapAccount) {
	t.Helper()
	if got, want := a.ComputeTotal(), sortedTotal(m.compute); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: ComputeTotal %v, sorted-key sum %v", step, got, want)
	}
	if got, want := a.MovementTotal(), sortedTotal(m.movement); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: MovementTotal %v, sorted-key sum %v", step, got, want)
	}
	if got, want := sourceNamesOf(a.Sources()), sortedKeys(m.compute); !slices.Equal(got, want) {
		t.Fatalf("step %d: Sources %v, want %v", step, got, want)
	}
	if got, want := sourceNamesOf(a.Paths()), sortedKeys(m.movement); !slices.Equal(got, want) {
		t.Fatalf("step %d: Paths %v, want %v", step, got, want)
	}
	for s := range numSources {
		if a.ComputeBy(s) != m.compute[s.String()] {
			t.Fatalf("step %d: ComputeBy(%v) = %v, want %v", step, s, a.ComputeBy(s), m.compute[s.String()])
		}
		if a.MoveBy(s) != m.movement[s.String()] {
			t.Fatalf("step %d: MoveBy(%v) = %v, want %v", step, s, a.MoveBy(s), m.movement[s.String()])
		}
	}
}

// TestLedgerMatchesMapModel drives random Compute/Move/Clone/Reset
// sequences through an Account and through the map-based model it
// replaced: totals must equal sorted-key summation to the last bit, names
// stay sorted, an entry charged zero joules is still listed, and a clone
// is independent of its original.
func TestLedgerMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, m := NewAccount(), newMapAccount()
		for step := 0; step < 400; step++ {
			src := Source(rng.Intn(int(numSources)))
			name := src.String()
			j := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-9))
			if rng.Intn(8) == 0 {
				j = 0
			}
			switch op := rng.Intn(20); {
			case op < 9:
				a.Compute(src, j)
				m.compute[name] += j
			case op < 18:
				a.Move(src, j)
				m.movement[name] += j
			case op == 18:
				// Keep charging the original; the copy — restored into a
				// zero account or over a used one — must not move.
				c, cm := NewAccount(), newMapAccount()
				if step%2 == 0 {
					c.Compute(PuD, 1)
					c.Move(src, 2)
				}
				c.Restore(a)
				maps.Copy(cm.compute, m.compute)
				maps.Copy(cm.movement, m.movement)
				other := (src + 1) % numSources
				a.Compute(src, j)
				a.Move(other, j)
				m.compute[name] += j
				m.movement[other.String()] += j
				requireSameAsModel(t, step, c, cm)
			default:
				a.Reset()
				m = newMapAccount()
			}
			requireSameAsModel(t, step, a, m)
		}
	}
}
