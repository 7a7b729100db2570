package router

import (
	"fmt"
	"slices"
	"sort"
)

// vnodes is the virtual-node fan-out per target; 64 keeps the keyspace
// split within a few percent of even for small fleets while the ring
// stays tiny.
const vnodes = 64

// Ring is a consistent-hash ring over target names. It is immutable
// after construction: placement is a pure function of (target set,
// workload), so every router over the same fleet routes identically.
type Ring struct {
	targets []string
	entries []ringEntry
}

type ringEntry struct {
	hash   uint64
	target int // index into targets
}

// NewRing builds the ring. Target names must be distinct — placement
// hashes them, and two targets with one name would shadow each other.
func NewRing(targets []string) (*Ring, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("router: ring needs at least one target")
	}
	seen := make(map[string]bool, len(targets))
	r := &Ring{
		targets: append([]string(nil), targets...),
		entries: make([]ringEntry, 0, len(targets)*vnodes),
	}
	for i, name := range targets {
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate target name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.entries = append(r.entries, ringEntry{
				hash:   fnv64(fmt.Sprintf("%s|%d", name, v)),
				target: i,
			})
		}
	}
	sort.Slice(r.entries, func(a, b int) bool {
		if r.entries[a].hash != r.entries[b].hash {
			return r.entries[a].hash < r.entries[b].hash
		}
		return r.entries[a].target < r.entries[b].target
	})
	return r, nil
}

// Order appends to dst[:0] the preference order for a key and returns
// it: the home target (first virtual node at or clockwise of the key's
// hash), then each distinct successor. Every target appears exactly once,
// so Order doubles as the failover walk.
func (r *Ring) Order(dst []int, key string) []int {
	h := fnv64(key)
	start := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
	order := dst[:0]
	for i := 0; i < len(r.entries) && len(order) < len(r.targets); i++ {
		if t := r.entries[(start+i)%len(r.entries)].target; !slices.Contains(order, t) {
			order = append(order, t)
		}
	}
	return order
}

// Home returns the home target index for a key: Order(nil, key)[0].
func (r *Ring) Home(key string) int { return r.Order(nil, key)[0] }

// fnv64 is FNV-1a, inlined so ring placement is self-contained and
// frozen: a stdlib hash change could silently re-place every workload.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
