package cow

import (
	"math/rand"
	"sync"
	"testing"
)

// TestModelRandomOps drives a growing family of tables with random
// Set/Restore/Freeze/At sequences and checks every table against a
// plain slice every few steps: whatever the ownership history, a write
// through one table is never visible through its parent, a sibling or a
// descendant. Restore takes any table of the family as its source — one
// that still owns chunks, a frozen one, the destination itself — and now
// and then a table of another length. A table also restores again from
// its last source, with writes to both sides, freezes and restores of the
// source in between: unchanged, that source is restored warm (only the
// destination's dirty chunks copied back); changed, the table walks it.
func TestModelRandomOps(t *testing.T) {
	var warm, changed int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3*ChunkLen+ChunkLen/2) // whole and short last chunks alike
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
				// Writes cluster on a few chunks so shared and owned
				// chunks are both hit repeatedly.
				i := (rng.Intn(4)*ChunkLen + rng.Intn(ChunkLen)) % len(models[k])
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
					// chunk owned, the rest shared fill.
					m := 1 + rng.Intn(4*ChunkLen)
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
			if step%20 == 19 {
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

// TestLastShortChunk: a length that is not a multiple of the chunk size
// keeps its exact length — the padding of the last chunk is out of
// range — and the short chunk copies on write like any other.
func TestLastShortChunk(t *testing.T) {
	const n = 2*ChunkLen + 7
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
		t.Fatalf("write to the clone's last chunk reached the parent: %d", got)
	}
	if got := c.At(n - 1); got != 42 {
		t.Fatalf("clone At(last) = %d, want 42", got)
	}
	for _, i := range []int{-1, n, 3*ChunkLen - 1} {
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

// TestRestoreKeepsOwnedChunks pins what makes a recycled table free: a
// chunk the table owns is overwritten in place and stays owned, so the
// restore and the writes after it allocate nothing; a chunk it does not
// own aliases the source's again.
func TestRestoreKeepsOwnedChunks(t *testing.T) {
	const n = 3*ChunkLen + 5
	master := New[int64](n, 7)
	master.Set(ChunkLen+1, 11)
	master.Freeze()
	var fork Table[int64]
	fork.Restore(&master)
	fork.Set(0, 1)         // chunk 0: owned from here on
	fork.Set(n-1, 2)       // the short last chunk too
	own0 := fork.chunks[0] // chunks 1 and 2 still alias the master's
	if allocs := testing.AllocsPerRun(10, func() {
		fork.Restore(&master)
		fork.Set(0, 3)
		fork.Set(n-1, 4)
	}); allocs != 0 {
		t.Errorf("restore + rewrite of owned chunks allocates %v objects, want 0", allocs)
	}
	fork.Restore(&master)
	if fork.chunks[0] != own0 || fork.state[0] != clean || fork.At(0) != 7 || fork.At(n-1) != 7 {
		t.Error("an owned chunk was not overwritten in place")
	}
	if fork.chunks[1] != master.chunks[1] || fork.state[1] != shared || fork.At(ChunkLen+1) != 11 {
		t.Error("an unowned chunk does not alias the source's")
	}
	if master.At(0) != 7 || master.At(n-1) != 7 {
		t.Error("the frozen source changed")
	}
}

// TestWarmRestoreCopiesOnlyDirtyChunks pins the warm path: restored again
// from an unchanged source, a table copies back its dirty chunks and
// nothing else — a clean chunk keeps its pointer and is not rewritten,
// which the test sees by scribbling into one behind Set's back — and no
// chunk is dirty afterwards. Once the source has changed in any way the
// restore walks every chunk again and repairs the scribble.
func TestWarmRestoreCopiesOnlyDirtyChunks(t *testing.T) {
	const n = 4 * ChunkLen
	master := New[int32](n, 7)
	master.Freeze()
	var fork Table[int32]
	fork.Restore(&master)
	for c := 0; c < 3; c++ {
		fork.Set(c*ChunkLen, 1) // chunks 0-2 owned; 3 still shared
	}
	fork.Restore(&master)
	own1 := fork.chunks[1]
	fork.Set(0, 2) // dirty: copied back by the warm restore
	own1[5] = -1   // clean: a warm restore never looks at it
	fork.Restore(&master)
	for c, st := range fork.state {
		if st == dirty {
			t.Errorf("chunk %d is dirty after a warm restore", c)
		}
	}
	if len(fork.dirtied) != 0 {
		t.Errorf("%d chunks still listed dirty after a warm restore", len(fork.dirtied))
	}
	if fork.At(0) != 7 {
		t.Error("the warm restore did not copy back a dirty chunk")
	}
	if fork.chunks[1] != own1 || fork.state[1] != clean || fork.At(ChunkLen+5) != -1 {
		t.Error("the warm restore touched an untouched owned chunk")
	}
	if fork.chunks[3] != master.chunks[3] {
		t.Error("a shared chunk stopped aliasing the source's")
	}

	for _, change := range []struct {
		name string
		do   func()
	}{
		{"a write", func() { master.Set(3*ChunkLen, 9) }},
		{"a freeze", func() { master.Freeze() }},
		{"a restore", func() { other := New[int32](n, 5); master.Restore(&other) }},
	} {
		own1[5] = -1
		change.do()
		want := master.At(ChunkLen + 5)
		fork.Restore(&master)
		if got := fork.At(ChunkLen + 5); got != want {
			t.Errorf("after %s to the source, restore left %d in a clean chunk, want %d", change.name, got, want)
		}
		master.Freeze()
		fork.Restore(&master)
	}
}

// TestFrozenTableClonesConcurrently is the deployment's access pattern
// under the race detector: several goroutines clone one frozen table at
// once and each writes its own clone, on the same indices, while as many
// again keep restoring one table of their own from it — warm after the
// first round — and writing that. Every copy sees only its own writes and
// the frozen table never changes.
func TestFrozenTableClonesConcurrently(t *testing.T) {
	const n = 5*ChunkLen + 100
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
				for i := 0; i < n; i++ {
					exp := want[i]
					if i >= w && (i-w)%13 == 0 {
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
