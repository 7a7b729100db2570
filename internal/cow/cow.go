package cow

import (
	"fmt"
	"sync/atomic"
)

// Shift sets the chunk size, 1<<Shift entries, of every table in the
// tree. doc.go records the measurement that chose it.
const (
	Shift    = 10
	ChunkLen = 1 << Shift
	mask     = ChunkLen - 1
)

// Table is a chunked copy-on-write array of n elements. Each chunk is
// shared with other tables and immutable, or owned — exclusively this
// table's, written in place. An owned chunk is clean while it still holds
// what the last Restore put there and dirty once Set writes it; the first
// write to a shared chunk copies it first. The zero value is an empty
// table.
type Table[T any] struct {
	n       int
	chunks  []*[ChunkLen]T // the last chunk is padded to full length
	state   []chunkState   // state[c]: who owns chunks[c] and whether it was written
	dirtied []int32        // the dirty chunks, in the order Set first wrote them

	// epoch moves on Restore and Freeze, the two changes a table can see
	// while it has no dirty chunk: any other change lists one.
	epoch uint64
	// src is the table t was last restored from and srcEpoch its epoch
	// then. While src still reads that epoch and has no dirty chunk, it
	// has not changed since, t differs from it only in t's dirty chunks,
	// and restoring from it again copies back just those.
	src      *Table[T]
	srcEpoch uint64
}

type chunkState uint8

const (
	shared chunkState = iota // aliased by other tables: copy before writing
	clean                    // owned, unwritten since the last Restore
	dirty                    // owned, written since the last Restore; listed in dirtied
)

// bases hands each table the start of its own range of epochs, so a table
// that takes another's place at the same address — a New or zero value
// assigned over it — never reads an epoch a destination remembered.
var bases atomic.Uint64

// New returns a table of n elements, all set to fill. Every chunk starts
// out as one shared, immutable chunk of fill values, so a table costs
// O(chunks) to build, whatever n is, and from then on only what is
// written into it.
func New[T any](n int, fill T) Table[T] {
	nc := (n + ChunkLen - 1) / ChunkLen
	t := Table[T]{n: n, chunks: make([]*[ChunkLen]T, nc), state: make([]chunkState, nc)}
	filled := new([ChunkLen]T)
	for i := range filled {
		filled[i] = fill
	}
	for c := range t.chunks {
		t.chunks[c] = filled
	}
	t.bump()
	return t
}

// bump moves t's epoch: every table restored from t walks it next time.
func (t *Table[T]) bump() {
	if t.epoch == 0 {
		t.epoch = bases.Add(1) << 32
	}
	t.epoch++
}

// Len reports the element count.
func (t *Table[T]) Len() int { return t.n }

// indexError is the panic value for an index outside [0, Len): the
// padding of the last chunk is not part of the table. Panicking with a
// value (no call on the hot path) keeps At within the inlining budget.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("cow: index %d out of range [0,%d)", e.i, e.n)
}

// At reads element i.
func (t *Table[T]) At(i int) T {
	if uint(i) >= uint(t.n) {
		panic(indexError{i, t.n})
	}
	return t.chunks[i>>Shift][i&mask]
}

// Set writes element i. The first write to a chunk since the last
// Restore makes it t's own — copied first if it is shared — and lists it
// as dirty; later writes to it take the one branch straight to the store.
func (t *Table[T]) Set(i int, v T) {
	if uint(i) >= uint(t.n) {
		panic(indexError{i, t.n})
	}
	c := i >> Shift
	if t.state[c] != dirty {
		if t.state[c] == shared {
			cp := *t.chunks[c]
			t.chunks[c] = &cp
		}
		t.state[c] = dirty
		t.dirtied = append(t.dirtied, int32(c))
	}
	t.chunks[c][i&mask] = v
}

// Freeze releases ownership of every chunk: the table keeps its
// contents but the next write to any chunk copies it first, and it
// forgets the table it was restored from. A frozen table restores into
// an empty one in O(chunks), and multiple goroutines may restore from it
// concurrently, since Restore never mutates its source.
func (t *Table[T]) Freeze() {
	clear(t.state)
	t.dirtied = t.dirtied[:0]
	t.src = nil
	t.bump()
}

// Restore makes t an independent copy of src in place, keeping the memory
// t already has.
//
// Restored again from the same src, unchanged since, t copies back only
// its dirty chunks: the clean ones still hold src's contents and the
// shared ones alias src's. Otherwise Restore walks every chunk slot: a
// chunk t owns is overwritten and stays owned, a chunk it does not own
// re-aliases src's (copy-on-write on both sides), and a chunk src owns,
// and may write in place, is deep-copied. Either way every chunk t owns
// is clean afterwards, so a table that is restored and rewritten over and
// over stops allocating once it owns every chunk its writer touches, and
// its restore costs what its writer wrote. A table of another length
// starts over, owning nothing. Restore never writes to src: any number of
// goroutines may restore from, and clone, one frozen table.
func (t *Table[T]) Restore(src *Table[T]) {
	if t.src == src && t.srcEpoch == src.epoch && len(src.dirtied) == 0 {
		for _, c := range t.dirtied {
			*t.chunks[c] = *src.chunks[c]
			t.state[c] = clean
		}
	} else {
		if len(t.chunks) != len(src.chunks) {
			t.chunks = append([]*[ChunkLen]T(nil), src.chunks...) // one bulk copy: the walk finds them aliased
			t.state = make([]chunkState, len(src.chunks))
		}
		// Resliced to one length so the walk below, one step per chunk
		// slot whatever is owned, runs without bounds checks.
		chunks, state, srcState := t.chunks[:len(src.chunks)], t.state[:len(src.chunks)], src.state[:len(src.chunks)]
		for c, sc := range src.chunks {
			switch {
			case state[c] != shared:
				*chunks[c] = *sc
				state[c] = clean
			case srcState[c] != shared:
				cp := *sc
				chunks[c], state[c] = &cp, clean
			case chunks[c] != sc: // already aliased when restored from the same source again: no store, no write barrier
				chunks[c] = sc
			}
		}
	}
	t.n = src.n
	t.dirtied = t.dirtied[:0]
	t.bump()
	t.src, t.srcEpoch = src, src.epoch
}
