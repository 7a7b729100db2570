package cow

import (
	"math/rand"
	"sync"
	"testing"
)

// TestModelRandomOps drives a growing family of tables with random
// Set/Clone/Freeze/At sequences and checks every table against a plain
// slice every few steps: whatever the ownership history, a write
// through one table is never visible through its parent, a sibling or a
// descendant.
func TestModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3*ChunkLen+ChunkLen/2) // whole and short last chunks alike
		fill := int32(rng.Intn(3) - 1)
		first := New(n, fill)
		tables := []*Table[int32]{&first}
		models := [][]int32{make([]int32, n)}
		for i := range models[0] {
			models[0][i] = fill
		}
		for step := 0; step < 400; step++ {
			k := rng.Intn(len(tables))
			switch op := rng.Intn(10); {
			case op < 6:
				// Writes cluster on a few chunks so shared and owned
				// chunks are both hit repeatedly.
				i := (rng.Intn(4)*ChunkLen + rng.Intn(ChunkLen)) % n
				v := rng.Int31()
				tables[k].Set(i, v)
				models[k][i] = v
			case op < 8 && len(tables) < 12:
				c := tables[k].Clone()
				tables = append(tables, &c)
				models = append(models, append([]int32(nil), models[k]...))
			case op < 9:
				tables[k].Freeze()
			default:
				i := rng.Intn(n)
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
	c := tb.Clone()
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
	ec := empty.Clone()
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

// TestFrozenTableClonesConcurrently is the deployment's access pattern
// under the race detector: several goroutines clone one frozen table at
// once and each writes its own clone, on the same indices. Every clone
// sees only its own writes and the frozen table never changes.
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

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				c := master.Clone()
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
