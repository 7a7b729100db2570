package lint_test

import (
	"os"
	"path/filepath"
	"strings"
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
	root := moduleRoot(t)
	raw, err := driver.Analyze(root, []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatalf("analyzing module: %v", err)
	}
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

	for _, e := range list.Entries() {
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
	root := moduleRoot(t)
	raw, err := driver.Analyze(root,
		[]string{"./internal/trace/...", "./internal/metrics/..."}, lint.Analyzers())
	if err != nil {
		t.Fatalf("analyzing observability packages: %v", err)
	}
	for _, f := range raw {
		t.Errorf("observability package has a raw finding (must be clean without exemptions): %s", f)
	}
}
