package driver_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinary builds cmd/conduitlint and runs it exactly the way CI and
// `make lint` do — `conduitlint ./...` — in a scratch module, pinning
// the exit-code contract end to end: a wall-clock call exits 1 with a
// pointed diagnostic, clean code exits 0 silently, and a pattern that
// matches nothing or an unreadable -allow file exits 2, so a typo in the
// gate cannot pass as a clean tree. This is the "fails without its
// check" guarantee for the whole binary, not just the in-process
// analyzers.
func TestBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the lint binary and shells out to go list")
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "conduitlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/conduitlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building conduitlint: %v\n%s", err, out)
	}

	// lint runs the binary with args in a scratch module holding src as
	// main.go and returns its combined output and exit code.
	lint := func(t *testing.T, src string, args ...string) (string, int) {
		t.Helper()
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.24.0\n")
		writeFile(t, filepath.Join(dir, "main.go"), src)
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return string(out), exit.ExitCode()
		}
		if err != nil {
			t.Fatalf("running conduitlint: %v", err)
		}
		return string(out), 0
	}

	const dirty = `package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now())
}
`
	const clean = `package main

import (
	"fmt"
	"math/rand"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	fmt.Println(rng.Intn(10))
}
`

	t.Run("dirty", func(t *testing.T) {
		out, code := lint(t, dirty, "./...")
		if code != 1 {
			t.Fatalf("exit %d on code that reads the wall clock, want 1; output:\n%s", code, out)
		}
		if !strings.Contains(out, "time.Now reads the wall clock") {
			t.Errorf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("clean", func(t *testing.T) {
		if out, code := lint(t, clean, "./..."); code != 0 {
			t.Fatalf("exit %d on clean code, want 0; output:\n%s", code, out)
		}
	})

	t.Run("nonexistent", func(t *testing.T) {
		for _, pattern := range []string{"./nonexistent", "./nonexistent/..."} {
			if out, code := lint(t, clean, pattern); code != 2 {
				t.Errorf("exit %d on pattern %s, which matches nothing, want 2; output:\n%s", code, pattern, out)
			}
		}
	})

	t.Run("badallow", func(t *testing.T) {
		missing := filepath.Join(t.TempDir(), "missing.allow")
		if out, code := lint(t, clean, "-allow", missing, "./..."); code != 2 {
			t.Fatalf("exit %d with an unreadable -allow file, want 2; output:\n%s", code, out)
		}
	})
}

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

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
