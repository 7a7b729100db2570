package energy

// Account tallies energy in joules, by source. The zero value is an
// empty account.
type Account struct {
	compute  ledger
	movement ledger
}

// Source names one tally: a computation source or a data-movement path.
// The constants are in sorted name order, so a ledger summed by index is
// summed in sorted-name order — float addition is not associative, and a
// fixed order is what keeps otherwise identical runs identical to the
// last bit.
type Source uint8

const (
	CPU          Source = iota // host CPU package and board ("CPU")
	GPU                        // host GPU board ("GPU")
	DRAMBus                    // SSD DRAM bus ("dram-bus")
	FlashChannel               // flash channels ("flash-channel")
	HostDRAM                   // host memory traffic ("host-dram")
	IFP                        // in-flash processing ("ifp")
	ISP                        // SSD controller cores ("isp")
	PCIe                       // host interface ("pcie")
	PuD                        // processing using SSD DRAM ("pud")
	numSources
)

var sourceNames = [numSources]string{"CPU", "GPU", "dram-bus", "flash-channel", "host-dram", "ifp", "isp", "pcie", "pud"}

// String reports the source's name.
func (s Source) String() string { return sourceNames[s] }

// ledger is one side of an account: a tally per source, charged millions
// of times, so a charge is one indexed add.
type ledger struct {
	joules  [numSources]float64
	charged uint16 // bit s: s was charged, perhaps with zero joules
}

func (l *ledger) add(s Source, j float64) {
	l.joules[s] += j
	l.charged |= 1 << s
}

// total sums every tally in index order. An uncharged tally is +0, and
// adding +0 to a non-negative sum leaves it bit for bit as it was.
func (l *ledger) total() float64 {
	var sum float64
	for _, j := range l.joules {
		sum += j
	}
	return sum
}

func (l *ledger) sources() []Source {
	var out []Source
	for s := range numSources {
		if l.charged&(1<<s) != 0 {
			out = append(out, s)
		}
	}
	return out
}

// NewAccount returns an empty account.
func NewAccount() *Account { return &Account{} }

// Compute records j joules of computation energy attributed to source.
func (a *Account) Compute(source Source, j float64) {
	if j < 0 {
		panic("energy: negative computation energy")
	}
	a.compute.add(source, j)
}

// Move records j joules of data-movement energy attributed to path.
func (a *Account) Move(path Source, j float64) {
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
func (a *Account) ComputeBy(source Source) float64 { return a.compute.joules[source] }

// MoveBy reports movement energy for one path.
func (a *Account) MoveBy(path Source) float64 { return a.movement.joules[path] }

// Sources returns every charged compute source in sorted name order.
func (a *Account) Sources() []Source { return a.compute.sources() }

// Paths returns every charged movement path in sorted name order.
func (a *Account) Paths() []Source { return a.movement.sources() }

// Reset clears the account.
func (a *Account) Reset() { *a = Account{} }

// Restore makes a an independent copy of src in place. Restoring into a
// zero Account is how an account is cloned.
func (a *Account) Restore(src *Account) { *a = *src }

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
