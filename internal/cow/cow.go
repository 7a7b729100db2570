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
// table clones in O(chunks) and is safe to clone from multiple
// goroutines concurrently, since Clone never mutates the parent.
func (t *Table[T]) Freeze() {
	for c := range t.owned {
		t.owned[c] = false
	}
}

// Clone returns an independent table: chunks the parent owns are deep
// copied (the parent may still write them in place); unowned chunks are
// aliased and protected by copy-on-write on both sides.
func (t *Table[T]) Clone() Table[T] {
	nt := Table[T]{
		n:      t.n,
		chunks: append([]*[ChunkLen]T(nil), t.chunks...),
		owned:  make([]bool, len(t.owned)),
	}
	for c, own := range t.owned {
		if own {
			cp := *t.chunks[c]
			nt.chunks[c] = &cp
			nt.owned[c] = true
		}
	}
	return nt
}
