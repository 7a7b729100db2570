// Package lint assembles the conduitlint analyzer suite.
//
// conduitlint machine-checks the invariants every headline claim of
// this reproduction rests on — byte-identical concurrent vs. serial
// sweeps, exact associative histogram and shard merges, and the
// zero-allocation arena ownership rule — so that the compiler-adjacent toolchain re-verifies them on every
// build instead of trusting example-based tests alone. It runs as one
// command (`go run ./cmd/conduitlint ./...`, internal/lint/driver) that
// applies the single committed allowlist (internal/lint/allow).
//
// See docs/ARCHITECTURE.md, "Static analysis & invariants", for the
// mapping from each analyzer to the determinism argument it guards.
package lint

import (
	"conduit/internal/lint/analysis"
	"conduit/internal/lint/arenaowner"
	"conduit/internal/lint/maporder"
	"conduit/internal/lint/nondeterm"
)

// Analyzers returns the full conduitlint suite in stable name order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		arenaowner.Analyzer,
		maporder.Analyzer,
		nondeterm.Analyzer,
	}
}
