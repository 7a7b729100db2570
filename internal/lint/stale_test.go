package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"conduit/internal/lint"
	"conduit/internal/lint/allow"
	"conduit/internal/lint/driver"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// module is the whole module, loaded once per test binary for every
// check that reads it.
var module struct {
	once sync.Once
	prog *driver.Program
	raw  []driver.Finding // every analyzer's raw findings over prog
	err  error
}

// loadModule type-checks the module (./...) on first use and returns it.
func loadModule(t *testing.T) *driver.Program {
	t.Helper()
	module.once.Do(func() {
		module.prog, module.err = driver.Load(moduleRoot(t), []string{"./..."})
		if module.err == nil {
			module.raw, module.err = module.prog.Analyze(lint.Analyzers())
		}
	})
	if module.err != nil {
		t.Fatalf("loading module: %v", module.err)
	}
	return module.prog
}

// TestAllowlistCurrent pins the two-sided contract between the tree and
// the committed allowlist: the tree is lint-clean (every raw finding is
// covered by an entry), and the allowlist is tight (every entry still
// suppresses at least one finding, and carries a justification). An
// entry that no longer matches anything is stale — the code was fixed —
// and must be deleted, so the list can only shrink.
func TestAllowlistCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole module via go list")
	}
	loadModule(t)
	raw := module.raw
	list := allow.Default()

	// The analyzers never skip test files themselves: the go list loader
	// must not hand them one.
	for _, f := range raw {
		if strings.HasSuffix(f.Position.Filename, "_test.go") {
			t.Errorf("finding in a test file: %s", f)
		}
	}

	for _, f := range driver.Filter(raw, list) {
		t.Errorf("finding not covered by the allowlist: %s", f)
	}

	for _, e := range list {
		if e.Justification == "" {
			t.Errorf("conduitlint.allow:%d: entry %q has no justification", e.Line, e)
			continue
		}
		live := false
		for _, f := range raw {
			if e.Matches(f.Analyzer, f.Pkg, f.Position.Filename) {
				live = true
				break
			}
		}
		if !live {
			t.Errorf("conduitlint.allow:%d: stale entry %q no longer suppresses any finding; delete it", e.Line, e)
		}
	}
}

// TestObservabilityPackagesNeedNoExemptions pins the tracing tier's
// determinism posture from the static side: internal/trace and
// internal/metrics must produce zero raw findings — no allowlist entry,
// no exemption. Wall-clock time enters tracing only through the
// injected Options.Now seam (the CLIs supply it), so the packages
// themselves never read a clock; if a time.Now or global-rand call ever
// sneaks in, this fails before any golden trace test does.
func TestObservabilityPackagesNeedNoExemptions(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes packages via go list")
	}
	loadModule(t)
	for _, f := range module.raw {
		if !strings.HasPrefix(f.Pkg, "conduit/internal/trace") && !strings.HasPrefix(f.Pkg, "conduit/internal/metrics") {
			continue
		}
		t.Errorf("observability package has a raw finding (must be clean without exemptions): %s", f)
	}
}
