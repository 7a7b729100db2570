// Conduitlint machine-checks the simulator's determinism and ownership
// invariants: no wall-clock or global-rand nondeterminism in simulator
// packages (nondeterm), no output driven by map iteration order
// (maporder), and arena pages recycled at most once and dead afterwards
// (arenaowner).
//
// Run it from the module root, which is what `make lint` and CI do:
//
//	go run ./cmd/conduitlint ./...
//
// It exits 0 when clean, 1 on findings, and 2 on an operational error
// (a pattern that matches no package, an unreadable -allow file).
// Exemptions live only in the committed allowlist
// (internal/lint/allow/conduitlint.allow); there is no inline ignore
// pragma. `conduitlint help` describes each analyzer.
package main

import (
	"conduit/internal/lint"
	"conduit/internal/lint/driver"
)

func main() {
	driver.Main(lint.Analyzers())
}
