package driver

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"conduit/internal/lint/allow"
	"conduit/internal/lint/analysis"
)

// Main is the entry point of cmd/conduitlint. It analyzes the packages
// the arguments name (default ./...), prints every finding the
// allowlist does not exempt, and exits 0 clean, 1 findings, 2
// operational error (a bad flag or -allow file, a pattern that matches
// no package, a package that does not type-check).
func Main(analyzers []*analysis.Analyzer) {
	progname := "conduitlint"
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	allowPath := flag.String("allow", "", "allowlist file overriding the committed internal/lint/allow list")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `%[1]s checks the conduit simulator's determinism and ownership invariants.

Usage:
	%[1]s [-allow file] [packages]   # e.g. %[1]s ./...
	%[1]s help                       # list analyzers

Analyzers:
`, progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "    %-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		os.Exit(2)
	}
	flag.Parse()
	fatal := func(err error) {
		log.Print(err)
		os.Exit(2)
	}

	list := allow.Default()
	if *allowPath != "" {
		data, err := os.ReadFile(*allowPath)
		if err != nil {
			fatal(err)
		}
		if list, err = allow.Parse(string(data)); err != nil {
			fatal(err)
		}
	}

	args := flag.Args()
	if len(args) == 1 && args[0] == "help" {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		os.Exit(0)
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	prog, err := Load(".", args)
	if err != nil {
		fatal(err)
	}
	findings, err := prog.Analyze(analyzers)
	if err != nil {
		fatal(err)
	}
	findings = Filter(findings, list)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
