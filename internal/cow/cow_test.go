package cow

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

const nodeLen = 1 << nodeShift // entries per node

// TestModelRandomOps drives a growing family of tables with random
// Set/Restore/Freeze/At sequences and checks every table against a
// plain slice every few steps: whatever the ownership history, a write
// through one table is never visible through its parent, a sibling or a
// descendant. The tables span several nodes, their last node and last
// leaf mostly short, and the writes cluster on node and leaf boundaries.
// Restore takes any table of the family as its source — one that still
// owns nodes, a frozen one, the destination itself — and now and then a
// table of another length. A table also restores again from its last
// source, with writes to both sides, freezes and restores of the source in
// between: unchanged, that source is restored warm (only the
// destination's dirty leaves copied back); changed, the table walks it.
func TestModelRandomOps(t *testing.T) {
	var warm, changed int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two to four nodes, the last one short, and the last leaf short
		// unless the remainder happens to be whole.
		n := (2+rng.Intn(2))*nodeLen + rng.Intn(fan)*leafLen + rng.Intn(leafLen)
		fill := int32(rng.Intn(3) - 1)
		first := New(n, fill)
		tables := []*Table[int32]{&first}
		models := [][]int32{make([]int32, n)}
		last := []int{-1} // last[k]: the index of tables[k]'s last source, -1 for none
		for i := range models[0] {
			models[0][i] = fill
		}
		restore := func(k, j int) {
			dst, src := tables[k], tables[j]
			if dst.src == src {
				if dst.srcEpoch == src.epoch && len(src.dirtied) == 0 {
					warm++
				} else {
					changed++
				}
			}
			dst.Restore(src)
			models[k] = append([]int32(nil), models[j]...)
			last[k] = j
		}
		for step := 0; step < 400; step++ {
			k := rng.Intn(len(tables))
			switch op := rng.Intn(12); {
			case op < 6:
				// Writes cluster within a few entries of a few node and
				// leaf boundaries, so shared and owned nodes and leaves
				// are all hit repeatedly, and on both sides of each edge.
				edge := rng.Intn(3)*nodeLen + rng.Intn(3)*leafLen
				i := (edge + rng.Intn(8) - 4 + len(models[k])) % len(models[k])
				v := rng.Int31()
				tables[k].Set(i, v)
				models[k][i] = v
			case op < 7 && len(tables) < 12:
				c := new(Table[int32])
				c.Restore(tables[k])
				tables = append(tables, c)
				models = append(models, append([]int32(nil), models[k]...))
				last = append(last, k)
			case op < 8:
				j := rng.Intn(len(tables))
				if rng.Intn(8) == 0 && len(tables) < 12 {
					// A table of another length joins the family: one
					// leaf owned, the rest shared fill.
					m := 1 + rng.Intn(4*nodeLen)
					other := New(m, int32(step))
					model := make([]int32, m)
					for i := range model {
						model[i] = int32(step)
					}
					other.Set(m-1, -7)
					model[m-1] = -7
					tables = append(tables, &other)
					models = append(models, model)
					last = append(last, -1)
					j = len(tables) - 1
				}
				restore(k, j)
			case op < 10:
				if last[k] >= 0 {
					restore(k, last[k])
				}
			case op < 11:
				tables[k].Freeze()
			default:
				i := rng.Intn(len(models[k]))
				if got := tables[k].At(i); got != models[k][i] {
					t.Fatalf("seed %d step %d: table %d At(%d) = %d, want %d", seed, step, k, i, got, models[k][i])
				}
			}
			if step%50 == 49 {
				checkAll(t, seed, step, tables, models)
			}
		}
		checkAll(t, seed, -1, tables, models)
	}
	if warm == 0 || changed == 0 {
		t.Errorf("%d warm restores and %d restores from a changed source: the model exercises both paths only when neither is 0", warm, changed)
	}
}

func checkAll(t *testing.T, seed int64, step int, tables []*Table[int32], models [][]int32) {
	t.Helper()
	for k, tb := range tables {
		if tb.Len() != len(models[k]) {
			t.Fatalf("seed %d step %d: table %d Len = %d, want %d", seed, step, k, tb.Len(), len(models[k]))
		}
		for i, want := range models[k] {
			if got := tb.At(i); got != want {
				t.Fatalf("seed %d step %d: table %d At(%d) = %d, want %d", seed, step, k, i, got, want)
			}
		}
	}
}

// leaf returns the leaf holding element i, and its state.
func (t *Table[T]) leaf(i int) (*[leafLen]T, leafState) {
	nd := t.nodes[i>>nodeShift]
	return nd.leaves[i>>leafShift&fanMask], nd.state[i>>leafShift&fanMask]
}

// TestLastShortLeaf: a length that is not a multiple of the node or leaf
// size keeps its exact length — the padding of the last leaf and of the
// last node is out of range, even once the last leaf is dirty — and the
// short leaf copies on write like any other.
func TestLastShortLeaf(t *testing.T) {
	const n = 2*nodeLen + 3*leafLen + 7
	tb := New[int32](n, -1)
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	if got := tb.At(n - 1); got != -1 {
		t.Fatalf("At(last) = %d, want the fill value", got)
	}
	tb.Freeze()
	var c Table[int32]
	c.Restore(&tb)
	c.Set(n-1, 42)
	if got := tb.At(n - 1); got != -1 {
		t.Fatalf("write to the clone's last leaf reached the parent: %d", got)
	}
	if got := c.At(n - 1); got != 42 {
		t.Fatalf("clone At(last) = %d, want 42", got)
	}
	if _, st := c.leaf(n - 1); st != dirty {
		t.Fatalf("the clone's last leaf is %d, want dirty", st)
	}
	for _, i := range []int{-1, n, n - 7 + leafLen - 1, 3*nodeLen - 1, 3 * nodeLen} {
		mustPanic(t, "At", func() { tb.At(i) })
		mustPanic(t, "Set", func() { c.Set(i, 0) })
	}

	empty := New(0, false)
	if empty.Len() != 0 {
		t.Fatalf("empty Len = %d", empty.Len())
	}
	var ec Table[bool]
	ec.Restore(&empty)
	mustPanic(t, "At on empty", func() { ec.At(0) })
	mustPanic(t, "Set on empty", func() { ec.Set(0, true) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s out of range did not panic", what)
		}
	}()
	f()
}

// TestCloneCopiesOnlyTheDirectory: cloning a frozen table allocates its
// directory, a node pointer and an ownership flag per node, and nothing
// per leaf or per entry: ≤ 2 KiB in 2 allocations whatever its length, up
// to 1 << 20 entries.
func TestCloneCopiesOnlyTheDirectory(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 16, 1<<20 - 3, 1 << 20} {
		master := New[int32](n, 7)
		for i := 0; i < n; i += leafLen + 1 {
			master.Set(i, int32(i)) // every leaf owned, then frozen
		}
		master.Freeze()
		var c Table[int32]
		allocs := testing.AllocsPerRun(20, func() {
			c = Table[int32]{}
			c.Restore(&master)
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const clones = 100
		for k := 0; k < clones; k++ {
			c = Table[int32]{}
			c.Restore(&master)
		}
		runtime.ReadMemStats(&after)
		perClone := (after.TotalAlloc - before.TotalAlloc) / clones
		if allocs > 2 || perClone > 2<<10 {
			t.Errorf("n = %d (%d nodes): a clone allocates %d B in %v allocations, want ≤ 2 KiB in 2",
				n, len(master.nodes), perClone, allocs)
		}
		if c.At(n-1) != master.At(n-1) {
			t.Errorf("n = %d: the clone reads %d at the end, want %d", n, c.At(n-1), master.At(n-1))
		}
	}
}

// TestRestoreKeepsOwnedLeaves pins what makes a recycled table free: a
// leaf the table owns is overwritten in place and stays owned, and so does
// its node, so the restore and the writes after it allocate nothing; a
// leaf it does not own aliases the source's again, inside an owned node or
// as part of a node the table never wrote, which still aliases the
// source's whole.
func TestRestoreKeepsOwnedLeaves(t *testing.T) {
	const n = 2*nodeLen + 5 // three nodes, the last one short
	master := New[int64](n, 7)
	master.Set(leafLen+1, 11) // node 0, leaf 1
	master.Set(nodeLen+1, 13) // node 1, leaf 0
	master.Freeze()
	var fork Table[int64]
	fork.Restore(&master)
	fork.Set(0, 1)   // node 0, leaf 0: owned from here on, and node 0 with it
	fork.Set(n-1, 2) // the short last leaf of the short last node too
	own0, ownLast := fork.nodes[0], fork.nodes[2]
	leaf0, _ := fork.leaf(0)
	if allocs := testing.AllocsPerRun(10, func() {
		fork.Restore(&master)
		fork.Set(0, 3)
		fork.Set(n-1, 4)
	}); allocs != 0 {
		t.Errorf("restore + rewrite of owned leaves allocates %v objects, want 0", allocs)
	}
	fork.Restore(&master)
	if l, st := fork.leaf(0); l != leaf0 || st != clean || fork.At(0) != 7 || fork.At(n-1) != 7 {
		t.Error("an owned leaf was not overwritten in place")
	}
	if fork.nodes[0] != own0 || !fork.owned[0] || fork.nodes[2] != ownLast || !fork.owned[2] {
		t.Error("an owned node was not kept")
	}
	if l, st := fork.leaf(leafLen + 1); st != shared || fork.At(leafLen+1) != 11 {
		t.Error("an unowned leaf of an owned node does not alias the source's")
	} else if ml, _ := master.leaf(leafLen + 1); l != ml {
		t.Error("an unowned leaf of an owned node is not the source's")
	}
	if fork.nodes[1] != master.nodes[1] || fork.owned[1] || fork.At(nodeLen+1) != 13 {
		t.Error("a node the fork never wrote does not alias the source's")
	}
	if master.At(0) != 7 || master.At(n-1) != 7 {
		t.Error("the frozen source changed")
	}
}

// TestWarmRestoreCopiesOnlyDirtyLeaves pins the warm path: restored again
// from an unchanged source, a table copies back its dirty leaves and
// nothing else — a clean leaf keeps its pointer and is not rewritten,
// which the test sees by scribbling into one behind Set's back, and that
// holds for a clean leaf beside a dirty one in the same node — and no leaf
// is dirty afterwards. Once the source has changed in any way the restore
// walks the directory again and repairs the scribble.
func TestWarmRestoreCopiesOnlyDirtyLeaves(t *testing.T) {
	const n = 2 * nodeLen
	master := New[int32](n, 7)
	master.Freeze()
	var fork Table[int32]
	fork.Restore(&master)
	for l := 0; l < 3; l++ {
		fork.Set(l*leafLen, 1) // node 0's leaves 0-2 owned; node 1 still shared
	}
	fork.Restore(&master)
	own1, _ := fork.leaf(leafLen)
	fork.Set(0, 2) // dirty: copied back by the warm restore
	own1[5] = -1   // clean, in the same node: a warm restore never looks at it
	fork.Restore(&master)
	for k, nd := range fork.nodes {
		for l, st := range nd.state {
			if st == dirty {
				t.Errorf("node %d leaf %d is dirty after a warm restore", k, l)
			}
		}
	}
	if len(fork.dirtied) != 0 {
		t.Errorf("%d leaves still listed dirty after a warm restore", len(fork.dirtied))
	}
	if fork.At(0) != 7 {
		t.Error("the warm restore did not copy back a dirty leaf")
	}
	if l, st := fork.leaf(leafLen); l != own1 || st != clean || fork.At(leafLen+5) != -1 {
		t.Error("the warm restore touched an untouched owned leaf")
	}
	if fork.nodes[1] != master.nodes[1] || fork.owned[1] {
		t.Error("a shared node stopped aliasing the source's")
	}

	for _, change := range []struct {
		name string
		do   func()
	}{
		{"a write", func() { master.Set(nodeLen, 9) }},
		{"a freeze", func() { master.Freeze() }},
		{"a restore", func() { other := New[int32](n, 5); master.Restore(&other) }},
	} {
		own1[5] = -1
		change.do()
		want := master.At(leafLen + 5)
		fork.Restore(&master)
		if got := fork.At(leafLen + 5); got != want {
			t.Errorf("after %s to the source, restore left %d in a clean leaf, want %d", change.name, got, want)
		}
		master.Freeze()
		fork.Restore(&master)
	}
}

// TestFrozenTableClonesConcurrently is the deployment's access pattern
// under the race detector: several goroutines clone one frozen table at
// once and each writes its own clone, on the same indices, while as many
// again keep restoring one table of their own from it — warm after the
// first round — and writing that. Every worker also fills a leaf of its
// own in one node all of them share, so the clones copy that node and
// its leaves side by side. Every copy sees only its own writes and the
// frozen table never changes.
func TestFrozenTableClonesConcurrently(t *testing.T) {
	const n = 3*nodeLen + 100
	master := New[int64](n, 7)
	for i := 0; i < n; i += 97 {
		master.Set(i, int64(i))
	}
	want := make([]int64, n)
	for i := range want {
		want[i] = master.At(i)
	}
	master.Freeze()

	const workers = 16 // even: a fresh clone per round; odd: one table, restored
	// own reports whether worker w wrote i: a stride over the table, and
	// leaf w of node 1.
	own := func(w, i int) bool {
		return i >= w && (i-w)%13 == 0 || i>>leafShift == nodeLen/leafLen+w
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c Table[int64]
			for round := 0; round < 20; round++ {
				if w%2 == 0 {
					c = Table[int64]{}
				} else if round > 0 && (c.src != &master || c.srcEpoch != master.epoch) {
					t.Errorf("worker %d round %d: the restore from an unchanged master is not warm", w, round)
					return
				}
				c.Restore(&master)
				for i := w; i < n; i += 13 {
					c.Set(i, int64(-w-1))
				}
				for i := nodeLen + w*leafLen; i < nodeLen+(w+1)*leafLen; i++ {
					c.Set(i, int64(-w-1))
				}
				for i := 0; i < n; i++ {
					exp := want[i]
					if own(w, i) {
						exp = int64(-w - 1)
					}
					if got := c.At(i); got != exp {
						t.Errorf("worker %d: clone At(%d) = %d, want %d", w, i, got, exp)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if got := master.At(i); got != want[i] {
			t.Fatalf("frozen table changed: At(%d) = %d, want %d", i, got, want[i])
		}
	}
}

// TestFrozenClonesCloneConcurrently: a clone that has written and is
// then frozen is a source like the master — its owned nodes become
// shared, and nothing in them may read as dirty, or Set's one-branch path
// would write into a node other tables alias. Several goroutines each
// clone the master, write a leaf of their own in a node all of them
// share, freeze the clone, and hand it to as many goroutines again, which
// clone it at once and write that leaf and others of the same node. Every table
// must see only its own writes and its sources' under the race detector.
func TestFrozenClonesCloneConcurrently(t *testing.T) {
	const n, workers = 2*nodeLen + 77, 4
	master := New[int32](n, 7)
	master.Set(nodeLen+3, 3)
	master.Freeze()
	fill := func(tb *Table[int32], leaf int, v int32) {
		for i := leaf * leafLen; i < (leaf+1)*leafLen; i++ {
			tb.Set(i, v)
		}
	}
	// check holds tb to the master plus the leaves named in own, each
	// filled with its value.
	check := func(who string, tb *Table[int32], own map[int]int32) {
		for i := 0; i < n; i++ {
			want := master.At(i)
			if v, ok := own[i>>leafShift]; ok {
				want = v
			}
			if got := tb.At(i); got != want {
				t.Errorf("%s: At(%d) = %d, want %d", who, i, got, want)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mid Table[int32]
			mid.Restore(&master)
			fill(&mid, w, int32(-w-1)) // leaf w of node 0
			mid.Freeze()
			var inner sync.WaitGroup
			for s := 0; s < workers; s++ {
				inner.Add(1)
				go func(s int) {
					defer inner.Done()
					var c Table[int32]
					c.Restore(&mid)
					leaf := workers + w*workers + s // another leaf of node 0
					fill(&c, leaf, int32(100*w+s))
					fill(&c, w, int32(100*w+s+50)) // and the leaf mid wrote before it froze
					check("clone of a frozen clone", &c, map[int]int32{w: int32(100*w + s + 50), leaf: int32(100*w + s)})
				}(s)
			}
			inner.Wait()
			check("frozen clone", &mid, map[int]int32{w: int32(-w - 1)})
		}(w)
	}
	wg.Wait()
	check("master", &master, nil)
}
