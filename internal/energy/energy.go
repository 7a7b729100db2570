package energy

import (
	"slices"
	"sort"
)

// Account tallies energy in joules, keyed by source. The zero value is not
// usable; call NewAccount.
type Account struct {
	compute  ledger
	movement ledger
}

// ledger is a name-sorted list of tallies. An account sees a handful of
// distinct names, charged millions of times: a short equality scan finds
// the entry, and keeping the list sorted makes every total a sum in
// sorted-name order — float addition is not associative, so a fixed order
// is what keeps otherwise identical runs identical to the last bit.
type ledger []entry

type entry struct {
	name   string
	joules float64
}

func (l *ledger) add(name string, j float64) {
	s := *l
	for i := range s {
		if s[i].name == name {
			s[i].joules += j
			return
		}
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].name > name })
	*l = slices.Insert(s, i, entry{name, j})
}

func (l ledger) get(name string) float64 {
	for i := range l {
		if l[i].name == name {
			return l[i].joules
		}
	}
	return 0
}

func (l ledger) total() float64 {
	var sum float64
	for i := range l {
		sum += l[i].joules
	}
	return sum
}

func (l ledger) names() []string {
	out := make([]string, len(l))
	for i := range l {
		out[i] = l[i].name
	}
	return out
}

// NewAccount returns an empty account.
func NewAccount() *Account { return &Account{} }

// Compute records j joules of computation energy attributed to source
// (e.g. "ifp", "pud", "isp", "cpu", "gpu").
func (a *Account) Compute(source string, j float64) {
	if j < 0 {
		panic("energy: negative computation energy")
	}
	a.compute.add(source, j)
}

// Move records j joules of data-movement energy attributed to path
// (e.g. "flash-channel", "dram-bus", "pcie").
func (a *Account) Move(path string, j float64) {
	if j < 0 {
		panic("energy: negative movement energy")
	}
	a.movement.add(path, j)
}

// ComputeTotal reports total computation energy in joules.
func (a *Account) ComputeTotal() float64 { return a.compute.total() }

// MovementTotal reports total data-movement energy in joules.
func (a *Account) MovementTotal() float64 { return a.movement.total() }

// Total reports all energy in joules.
func (a *Account) Total() float64 { return a.ComputeTotal() + a.MovementTotal() }

// ComputeBy reports computation energy for one source.
func (a *Account) ComputeBy(source string) float64 { return a.compute.get(source) }

// MoveBy reports movement energy for one path.
func (a *Account) MoveBy(path string) float64 { return a.movement.get(path) }

// Sources returns all compute sources in sorted order.
func (a *Account) Sources() []string { return a.compute.names() }

// Paths returns all movement paths in sorted order.
func (a *Account) Paths() []string { return a.movement.names() }

// Reset clears the account.
func (a *Account) Reset() { *a = Account{} }

// Restore makes a an independent copy of src in place, reusing a's ledger
// storage. Restoring into a zero Account is how an account is cloned.
func (a *Account) Restore(src *Account) {
	a.compute = append(a.compute[:0], src.compute...)
	a.movement = append(a.movement[:0], src.movement...)
}

// MergeShards sums per-shard (compute, movement) energy pairs in slice
// order. Float addition is not associative, so the fixed shard-index
// order — not completion order — is what keeps a cluster's gathered
// energy totals byte-identical between concurrent and serial shard
// execution. Both slices must have the same length.
func MergeShards(compute, movement []float64) (computeJ, movementJ float64) {
	if len(compute) != len(movement) {
		panic("energy: MergeShards slice lengths differ")
	}
	for i := range compute {
		computeJ += compute[i]
		movementJ += movement[i]
	}
	return computeJ, movementJ
}
