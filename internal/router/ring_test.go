package router

import (
	"reflect"
	"testing"
)

func TestRingOrderCoversEveryTargetOnce(t *testing.T) {
	targets := []string{"t0", "t1", "t2", "t3"}
	r, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"AES", "jacobi-1d", "heat-3d", "", "LLM Training"} {
		order := r.Order(nil, key)
		if len(order) != len(targets) {
			t.Fatalf("Order(%q) = %v, want every target exactly once", key, order)
		}
		seen := map[int]bool{}
		for _, idx := range order {
			if idx < 0 || idx >= len(targets) || seen[idx] {
				t.Fatalf("Order(%q) = %v: bad or repeated index %d", key, order, idx)
			}
			seen[idx] = true
		}
	}
}

func TestRingIsDeterministicAndOrderIndependent(t *testing.T) {
	// Placement is a pure function of (target set, key): shuffling the
	// registration order or rebuilding the ring must not move any
	// workload's home target.
	a, err := NewRing([]string{"t0", "t1", "t2"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"t2", "t0", "t1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"AES", "XOR Filter", "jacobi-1d", "heat-3d"} {
		got := b.targets[b.Home(key)]
		want := a.targets[a.Home(key)]
		if got != want {
			t.Errorf("Home(%q) depends on registration order: %s vs %s", key, got, want)
		}
		if !reflect.DeepEqual(a.Order(nil, key), a.Order(nil, key)) {
			t.Errorf("Order(%q) is not stable across calls", key)
		}
	}
}

func TestRingKeysSurviveTargetRemoval(t *testing.T) {
	// The point of consistent hashing: dropping one target of four moves
	// only the keys it owned, never keys homed elsewhere.
	full, err := NewRing([]string{"t0", "t1", "t2", "t3"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"t0", "t1", "t2"})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"AES", "XOR Filter", "jacobi-1d", "heat-3d", "LlaMA2 Inference", "LLM Training"}
	for _, key := range keys {
		home := full.targets[full.Home(key)]
		if home == "t3" {
			continue // owned by the removed target; allowed to move
		}
		if got := reduced.targets[reduced.Home(key)]; got != home {
			t.Errorf("removing t3 moved %q from %s to %s", key, home, got)
		}
	}
}

func TestNewRingRejectsBadFleets(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewRing([]string{"t0", "t0"}); err == nil {
		t.Error("duplicate target name accepted")
	}
}
