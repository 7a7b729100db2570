// Package nondeterm implements the conduitlint analyzer that forbids
// nondeterministic inputs inside the deterministic simulator packages.
package nondeterm

import (
	"go/ast"
	"go/types"

	"conduit/internal/lint/analysis"
)

// Analyzer flags wall-clock reads, global math/rand state, and
// GOMAXPROCS-dependent constructs.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterm",
	Doc: `forbid nondeterministic inputs in deterministic simulator code

The simulator's headline contract is that a run is a pure function of
(workload, policy, configuration, seed): concurrent and serial sweeps
are byte-identical, cluster shard merges are exact, and every committed
figure is reproducible. That contract cannot survive code that reads
the wall clock (time.Now/Since/Sleep/...), draws from the process-global
math/rand generator (shared, lockstep-unseeded state), or branches on
machine shape (runtime.GOMAXPROCS/NumCPU). This analyzer flags every
such call. Simulated time must come from sim.Time; randomness from an
explicitly seeded rand.New(rand.NewSource(seed)) or loadgen.Stream;
worker counts from configuration.

The serving layer measures real latency and paces real arrivals, so
wall-clock use there is the product, not a bug: those packages are
exempted by the committed allowlist (internal/lint/allow), never by
inline pragmas. Test files are skipped: tests assert determinism from
outside and may time out, sleep, or seed as they please.`,
	Run: run,
}

// bannedFuncs maps package path -> function name -> why it breaks
// determinism.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock",
		"Since":     "reads the wall clock",
		"Until":     "reads the wall clock",
		"Sleep":     "couples execution to the wall clock",
		"After":     "couples execution to the wall clock",
		"AfterFunc": "couples execution to the wall clock",
		"Tick":      "couples execution to the wall clock",
		"NewTimer":  "couples execution to the wall clock",
		"NewTicker": "couples execution to the wall clock",
	},
	"runtime": {
		"GOMAXPROCS":   "makes behavior depend on machine shape",
		"NumCPU":       "makes behavior depend on machine shape",
		"NumGoroutine": "makes behavior depend on scheduler state",
	},
}

// globalRandConstructors are the only math/rand package-level functions
// that do NOT touch the global generator.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. (*rand.Rand).Intn on a seeded local) are
			// always fine; only package-level functions are global state.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pkg := fn.Pkg().Path()
			switch pkg {
			case "math/rand", "math/rand/v2":
				if !globalRandConstructors[fn.Name()] {
					pass.Reportf(call.Pos(),
						"%s.%s draws from the process-global generator; deterministic packages must use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Pkg().Name(), fn.Name())
				}
			default:
				if why, ok := bannedFuncs[pkg][fn.Name()]; ok {
					pass.Reportf(call.Pos(),
						"%s.%s %s; deterministic packages must derive time from sim.Time and concurrency from configuration", fn.Pkg().Name(), fn.Name(), why)
				}
			}
			return true
		})
	}
	return nil
}
