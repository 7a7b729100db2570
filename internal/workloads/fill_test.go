package workloads

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"conduit/internal/cluster"
	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/sim"
)

// eagerSeed is the seed the eager builders drew an input array's whole
// dataset from, as one sim.RNG.Bytes over Len bytes.
func eagerSeed(workload, array string) uint64 {
	var a, b int
	switch {
	case workload == "AES" && array == "state":
		return 0xAE5
	case workload == "AES":
		fmt.Sscanf(array, "rk%d", &a)
		return 0x6E7 + uint64(a)
	case array == "keys":
		return 0xF117E2
	case workload == "XOR Filter":
		fmt.Sscanf(array, "bank%d", &a)
		return 0xBA7C + uint64(a)
	case workload == "heat-3d":
		return 0x3EA7
	case workload == "jacobi-1d":
		return 0x1ACB1
	case array == "x":
		return 0x11A
	}
	proj, layer, _ := strings.Cut(array, "_")
	fmt.Sscanf(layer, "%d_%d", &a, &b)
	return uint64(a*131+b*17) + hashName(proj)
}

// TestInputPagesMatchEagerBytes: every input page of the six workloads at
// scales 1 and 2 — whole, and in every shard of a 2- and a 4-shard plan —
// is the matching window of the eagerly built dataset, zero-padded past
// the array's end.
func TestInputPagesMatchEagerBytes(t *testing.T) {
	ps := config.Default().SSD.PageSize
	page, want := make([]byte, ps), make([]byte, ps)
	for scale := 1; scale <= 2; scale++ {
		for _, w := range All(scale) {
			eager := map[string][]byte{}
			for _, a := range w.Source.Arrays {
				if a.Input {
					eager[a.Name] = make([]byte, a.Len*a.Elem)
					sim.NewRNG(eagerSeed(w.Name, a.Name)).Bytes(eager[a.Name])
				}
			}
			for _, shards := range []int{1, 2, 4} {
				plan, err := cluster.PlanShards(w.Source, ps, shards, Partition(w.Name))
				if errors.Is(err, cluster.ErrTooManyShards) {
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				for i := range shards {
					src, err := plan.Shard(w.Source, i)
					if err != nil {
						t.Fatal(err)
					}
					c, err := compiler.Compile(src, ps)
					if err != nil {
						t.Fatal(err)
					}
					start, end := plan.ShardLanes(i)
					for _, a := range src.Arrays {
						if !a.Input {
							continue
						}
						image := eager[a.Name]
						if shards > 1 && slices.Contains(plan.Partitioned, a.Name) {
							image = image[start*a.Elem : end*a.Elem]
						}
						for k, p := range c.ArrayPages(a.Name) {
							clear(want)
							copy(want, image[min(k*ps, len(image)):])
							if !c.InputPage(p, page) || !bytes.Equal(page, want) {
								t.Fatalf("%s scale %d shard %d/%d: page %d of %q differs from the eager bytes",
									w.Name, scale, i, shards, k, a.Name)
							}
						}
					}
				}
			}
		}
	}
}
