package cow

import (
	"fmt"
	"sync/atomic"
)

// A table is two levels deep: a directory of nodes, each holding fan
// leaves of leafLen entries. doc.go records the measurement that chose
// both sizes.
const (
	leafShift = 8
	leafLen   = 1 << leafShift
	leafMask  = leafLen - 1

	fanShift  = 6
	fan       = 1 << fanShift
	fanMask   = fan - 1
	nodeShift = leafShift + fanShift // entries per node, as a shift
)

// Table is a copy-on-write array of n elements, stored as a directory of
// nodes that each point at fan leaves. A node and a leaf are each either
// shared with other tables and immutable, or owned — exclusively this
// table's, written in place. An owned leaf is clean while it still holds
// what the last Restore put there and dirty once Set writes it; the first
// write to a leaf copies its node first if the node is shared and then
// the leaf if it is shared. The zero value is an empty table.
type Table[T any] struct {
	n       int
	nodes   []*node[T] // the last node, and its last leaf, are padded to full length
	owned   []bool     // owned[k]: whether nodes[k] is this table's
	dirtied []int32    // the dirty leaves, by table-wide leaf index, in the order Set first wrote them

	// epoch moves on Restore and Freeze, the two changes a table can see
	// while it has no dirty leaf: any other change lists one.
	epoch uint64
	// src is the table t was last restored from and srcEpoch its epoch
	// then. While src still reads that epoch and has no dirty leaf, it
	// has not changed since, t differs from it only in t's dirty leaves,
	// and restoring from it again copies back just those.
	src      *Table[T]
	srcEpoch uint64

	// claim is the function claim, held here for Set to pass on: see Set.
	claim func(*Table[T], int) *node[T]
}

// node is one directory entry: fan leaves and who owns each. A node that
// is shared — aliased by several tables, or frozen — lists every leaf as
// shared and is never written; only a node a table owns has owned leaves.
type node[T any] struct {
	leaves [fan]*[leafLen]T
	state  [fan]leafState
}

type leafState uint8

const (
	shared leafState = iota // aliased by other tables or nodes: copy before writing
	clean                   // owned, unwritten since the last Restore
	dirty                   // owned, written since the last Restore; listed in dirtied
)

// bases hands each table the start of its own range of epochs, so a table
// that takes another's place at the same address — a New or zero value
// assigned over it — never reads an epoch a destination remembered.
var bases atomic.Uint64

// New returns a table of n elements, all set to fill. Every node starts
// out as one shared node whose leaves are all one shared leaf of fill
// values, so a table costs O(nodes) to build, whatever n is, and from
// then on only what is written into it.
func New[T any](n int, fill T) Table[T] {
	nn := (n + 1<<nodeShift - 1) >> nodeShift
	t := Table[T]{n: n, nodes: make([]*node[T], nn), owned: make([]bool, nn), claim: claim[T]}
	filled, leaf := new(node[T]), new([leafLen]T)
	for i := range leaf {
		leaf[i] = fill
	}
	for l := range filled.leaves {
		filled.leaves[l] = leaf
	}
	for k := range t.nodes {
		t.nodes[k] = filled
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
// padding of the last node is not part of the table. Panicking with a
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
	return t.nodes[i>>nodeShift].leaves[i>>leafShift&fanMask][i&leafMask]
}

// Set writes element i. The first write to a leaf since the last Restore
// makes it, and its node, t's own (claim); later writes to it take the
// one branch straight to the store. A shared node lists no leaf dirty, so
// the branch needs no look at the node's owner.
//
// The inliner charges 57 for a call and 17 for a call through a
// parameter, against a budget of 80: calling claim directly, Set costs
// 110; passing it to set as a parameter, read from t (in generic code a
// reference to claim[T] builds a closure), 77. So the dirty path inlines
// into the caller and only a first write pays a call.
func (t *Table[T]) Set(i int, v T) { set(t, i, v, t.claim) }

func set[T any](t *Table[T], i int, v T, claim func(*Table[T], int) *node[T]) {
	nd := t.nodes[i>>nodeShift]
	if uint(i) >= uint(t.n) || nd.state[i>>leafShift&fanMask] != dirty {
		nd = claim(t, i)
	}
	nd.leaves[i>>leafShift&fanMask][i&leafMask] = v
}

// claim makes the leaf holding element i dirty and returns its node: the
// node is copied first if it is shared, then the leaf if it is shared,
// and the leaf joins dirtied.
func claim[T any](t *Table[T], i int) *node[T] {
	if uint(i) >= uint(t.n) {
		panic(indexError{i, t.n})
	}
	k, l := i>>nodeShift, i>>leafShift&fanMask
	nd := t.nodes[k]
	if !t.owned[k] {
		// A shared node's leaves are all shared, so the leaf is copied
		// too: one allocation holds both copies.
		b := &struct {
			nd node[T]
			lf [leafLen]T
		}{*nd, *nd.leaves[l]}
		b.nd.leaves[l] = &b.lf
		nd, t.nodes[k], t.owned[k] = &b.nd, &b.nd, true
	} else if nd.state[l] == shared {
		cp := *nd.leaves[l]
		nd.leaves[l] = &cp
	}
	nd.state[l] = dirty
	t.dirtied = append(t.dirtied, int32(i>>leafShift))
	return nd
}

// Freeze releases ownership of every node and leaf: the table keeps its
// contents but the next write to any leaf copies it first, and it
// forgets the table it was restored from. A frozen table restores into
// an empty one in O(nodes), and multiple goroutines may restore from it
// concurrently, since Restore never mutates its source.
func (t *Table[T]) Freeze() {
	for k, own := range t.owned {
		if own {
			t.nodes[k].state = [fan]leafState{}
			t.owned[k] = false
		}
	}
	t.dirtied = t.dirtied[:0]
	t.src = nil
	t.bump()
}

// Restore makes t an independent copy of src in place, keeping the memory
// t already has.
//
// Restored again from the same src, unchanged since, t copies back only
// its dirty leaves: the clean ones still hold src's contents and the
// shared ones alias src's. Otherwise Restore walks the directory: a node
// both tables share is aliased, a node t owns is walked leaf by leaf
// (restoreNode), and a node src owns, and may write in place, is
// deep-copied: a new node, its owned leaves copied, its shared ones
// aliased. Either way every leaf t owns is clean afterwards, so a table
// that is restored and rewritten over and over stops allocating once it
// owns every node and leaf its writer touches, and its restore costs what
// its writer wrote. A table of another node count starts over, owning
// nothing. Restore never writes to src: any number of goroutines may
// restore from, and clone, one frozen table.
func (t *Table[T]) Restore(src *Table[T]) {
	if t.src == src && t.srcEpoch == src.epoch && len(src.dirtied) == 0 {
		for _, c := range t.dirtied {
			k, l := c>>fanShift, c&fanMask
			nd := t.nodes[k]
			*nd.leaves[l] = *src.nodes[k].leaves[l]
			nd.state[l] = clean
		}
	} else {
		if len(t.nodes) != len(src.nodes) {
			t.nodes = append([]*node[T](nil), src.nodes...) // one bulk copy: the walk finds them aliased
			t.owned = make([]bool, len(src.nodes))
		}
		// Resliced to one length so the walk below runs without bounds
		// checks.
		nodes, owned, srcOwned := t.nodes[:len(src.nodes)], t.owned[:len(src.nodes)], src.owned[:len(src.nodes)]
		for k, sn := range src.nodes {
			switch {
			case owned[k]:
				restoreNode(nodes[k], sn)
			case srcOwned[k]:
				nd := new(node[T])
				restoreNode(nd, sn)
				nodes[k], owned[k] = nd, true
			case nodes[k] != sn: // already aliased when restored from the same source again: no store, no write barrier
				nodes[k] = sn
			}
		}
	}
	t.n, t.claim = src.n, src.claim
	t.dirtied = t.dirtied[:0]
	t.bump()
	t.src, t.srcEpoch = src, src.epoch
}

// restoreNode makes nd, a node its table owns, hold what sn holds: a leaf
// nd owns is overwritten and stays owned, a leaf it does not own
// re-aliases sn's (copy-on-write on both sides), and a leaf sn owns — only
// a node its table owns has any — is deep-copied.
func restoreNode[T any](nd, sn *node[T]) {
	for l, sl := range sn.leaves {
		switch {
		case nd.state[l] != shared:
			*nd.leaves[l] = *sl
			nd.state[l] = clean
		case sn.state[l] != shared:
			cp := *sl
			nd.leaves[l], nd.state[l] = &cp, clean
		case nd.leaves[l] != sl:
			nd.leaves[l] = sl
		}
	}
}
