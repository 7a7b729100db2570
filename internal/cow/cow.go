package cow

import "fmt"

// Shift sets the chunk size, 1<<Shift entries, of every table in the
// tree. doc.go records the measurement that chose it.
const (
	Shift    = 10
	ChunkLen = 1 << Shift
	mask     = ChunkLen - 1
)

// Table is a chunked copy-on-write array of n elements. Each chunk is
// either owned — exclusively this table's, written in place — or shared
// with other tables and immutable; the first write to a shared chunk
// copies it first. The zero value is an empty table.
type Table[T any] struct {
	n      int
	chunks []*[ChunkLen]T // the last chunk is padded to full length
	owned  []bool         // owned[c]: chunks[c] is exclusively ours, writable in place
}

// New returns a table of n elements, all set to fill. Every chunk starts
// out as one shared, immutable chunk of fill values, so a table costs
// O(chunks) to build, whatever n is, and from then on only what is
// written into it.
func New[T any](n int, fill T) Table[T] {
	nc := (n + ChunkLen - 1) / ChunkLen
	t := Table[T]{n: n, chunks: make([]*[ChunkLen]T, nc), owned: make([]bool, nc)}
	filled := new([ChunkLen]T)
	for i := range filled {
		filled[i] = fill
	}
	for c := range t.chunks {
		t.chunks[c] = filled
	}
	return t
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

// Set writes element i, copying the containing chunk first if it is
// shared with another table.
func (t *Table[T]) Set(i int, v T) {
	if uint(i) >= uint(t.n) {
		panic(indexError{i, t.n})
	}
	c := i >> Shift
	if !t.owned[c] {
		cp := *t.chunks[c]
		t.chunks[c] = &cp
		t.owned[c] = true
	}
	t.chunks[c][i&mask] = v
}

// Freeze releases ownership of every chunk: the table keeps its
// contents but the next write to any chunk copies it first. A frozen
// table restores into an empty one in O(chunks), and multiple goroutines
// may restore from it concurrently, since Restore never mutates its
// source.
func (t *Table[T]) Freeze() {
	for c := range t.owned {
		t.owned[c] = false
	}
}

// Restore makes t an independent copy of src in place, keeping the memory
// t already has: a chunk t owns is overwritten and stays owned, a chunk it
// does not own re-aliases src's (copy-on-write on both sides), and a chunk
// src still owns, and may write in place, is deep-copied. A table that is
// restored and rewritten over and over therefore stops allocating once it
// owns every chunk its writer touches. A table of another length starts
// over, owning nothing. Restore never writes to src: any number of
// goroutines may restore from, and clone, one frozen table.
func (t *Table[T]) Restore(src *Table[T]) {
	if len(t.chunks) != len(src.chunks) {
		t.chunks = append([]*[ChunkLen]T(nil), src.chunks...) // one bulk copy: the walk finds them aliased
		t.owned = make([]bool, len(src.chunks))
	}
	t.n = src.n
	// Resliced to one length so the walk below, one step per chunk slot
	// whatever is owned, runs without bounds checks.
	chunks, owned, srcOwned := t.chunks[:len(src.chunks)], t.owned[:len(src.chunks)], src.owned[:len(src.chunks)]
	for c, sc := range src.chunks {
		switch {
		case owned[c]:
			*chunks[c] = *sc
		case srcOwned[c]:
			cp := *sc
			chunks[c], owned[c] = &cp, true
		case chunks[c] != sc: // already aliased when restored from the same source again: no store, no write barrier
			chunks[c] = sc
		}
	}
}
