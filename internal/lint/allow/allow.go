// Package allow parses and applies conduitlint's single committed
// allowlist. Exemptions from the determinism analyzers live in exactly
// one reviewed file — internal/lint/allow/conduitlint.allow, embedded
// into the conduitlint binary — never in inline pragmas scattered
// through the tree. Every entry must carry a justification, and the
// staleness meta-test in internal/lint fails if an entry no longer
// suppresses anything, so the list can only shrink as code is fixed.
package allow

import (
	_ "embed"
	"fmt"
	"path"
	"strings"
)

//go:embed conduitlint.allow
var embedded string

// An Entry exempts one (analyzer, package[, file]) from diagnostics.
type Entry struct {
	// Analyzer is the analyzer name the entry silences.
	Analyzer string
	// Pkg is the import path the entry covers; a trailing "/..." covers
	// the subtree (used for cmd/...).
	Pkg string
	// File optionally narrows the entry to one file basename.
	File string
	// Justification is the mandatory human reason after '#'.
	Justification string
	// Line is the 1-based line in the allowlist file, for messages.
	Line int
}

func (e Entry) String() string {
	s := e.Analyzer + " " + e.Pkg
	if e.File != "" {
		s += " " + e.File
	}
	return s
}

// A List is a parsed allowlist, its entries in file order.
type List []Entry

// Default returns the committed, compiled-in allowlist.
func Default() List {
	l, err := Parse(embedded)
	if err != nil {
		// The committed list is validated by tests; an unparsable
		// embedded list is a build defect, not a runtime condition.
		panic(fmt.Sprintf("allow: embedded conduitlint.allow is invalid: %v", err))
	}
	return l
}

// Parse reads an allowlist. Each non-blank, non-comment line is
//
//	<analyzer> <import-path>[ <file.go>] # <justification>
//
// The justification is required: an exemption nobody can defend is an
// exemption that should not exist.
func Parse(src string) (List, error) {
	var l List
	for i, line := range strings.Split(src, "\n") {
		text, _, _ := strings.Cut(line, "#")
		just := ""
		if idx := strings.Index(line, "#"); idx >= 0 {
			just = strings.TrimSpace(line[idx+1:])
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue // blank or pure comment
		}
		if len(fields) > 3 {
			return nil, fmt.Errorf("line %d: want \"analyzer pkg [file.go] # justification\", got %q", i+1, line)
		}
		e := Entry{Analyzer: fields[0], Pkg: fields[1], Justification: just, Line: i + 1}
		if len(fields) == 3 {
			if !strings.HasSuffix(fields[2], ".go") {
				return nil, fmt.Errorf("line %d: third field %q must be a .go file basename", i+1, fields[2])
			}
			e.File = fields[2]
		}
		if e.Justification == "" {
			return nil, fmt.Errorf("line %d: entry %q has no justification comment", i+1, e)
		}
		l = append(l, e)
	}
	return l, nil
}

// Allows reports whether a diagnostic from analyzer in package pkgPath,
// file filename (basename or full path), is exempted.
func (l List) Allows(analyzer, pkgPath, filename string) bool {
	for _, e := range l {
		if e.Matches(analyzer, pkgPath, filename) {
			return true
		}
	}
	return false
}

// Matches reports whether e exempts a diagnostic from analyzer in
// package pkgPath, file filename (basename or full path). Exported so
// the staleness meta-test can ask which entries still suppress anything.
func (e Entry) Matches(analyzer, pkgPath, filename string) bool {
	if e.Analyzer != analyzer {
		return false
	}
	if !pkgMatch(e.Pkg, pkgPath) {
		return false
	}
	if e.File != "" && e.File != path.Base(strings.ReplaceAll(filename, "\\", "/")) {
		return false
	}
	return true
}

func pkgMatch(pattern, pkgPath string) bool {
	if sub, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/")
	}
	return pattern == pkgPath
}
