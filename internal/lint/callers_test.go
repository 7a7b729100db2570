package lint_test

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exportedUncalled lists the exported names no non-test file references,
// each with the reason it stays. Entries may only be removed: an entry
// whose name gains a caller, or is gone, fails the test.
var exportedUncalled = map[string]string{
	"compiler.Interpret":              "test oracle: the reference interpreter compiled programs are checked against",
	"conduit.Cluster.RunSerial":       "test oracle: the serial scatter-gather the concurrent one must equal",
	"conduit.NewReferenceExperiments": "test oracle: the functional-data-plane harness the timing-only one must equal",
	"config.TestScale":                "test oracle: the shrunken drive unit tests run on",
	"dram.Module.SetSlotForTest":      "test setter: plants a slot's bytes",
	"nand.Array.SetPageForTest":       "test setter: plants a page's bytes",
	"lint/analysistest.Run":           "test harness: runs an analyzer over its golden packages",
	"conduit.Server.Tenants":          "test oracle: TestMetricsSnapshotMatchesAccounting checks the metrics scrape against it",
	"sim.Group.Member":                "test oracle: the Group-vs-scan tests reserve on, and compare, single members",
	"ftl.FTL.Migrate":                 "waits for ROADMAP 9(b), which may give it a caller",
	"target.NewOn":                    "serves any net.Listener: ROADMAP item 1's in-process fleet will use it",
	"conduit.Expr":                    "the root package's public op vocabulary for Source programs",
	"conduit.Un":                      "the root package's public op vocabulary for Source programs",
	"conduit.OpSub":                   "the root package's public op vocabulary for Source programs",
	"conduit.OpDiv":                   "the root package's public op vocabulary for Source programs",
	"conduit.OpNot":                   "the root package's public op vocabulary for Source programs",
	"conduit.OpShl":                   "the root package's public op vocabulary for Source programs",
	"conduit.OpShr":                   "the root package's public op vocabulary for Source programs",
	"conduit.OpLT":                    "the root package's public op vocabulary for Source programs",
	"conduit.OpEQ":                    "the root package's public op vocabulary for Source programs",
	"conduit.OpMax":                   "the root package's public op vocabulary for Source programs",
}

// objectKey names obj across type-checks: each package is checked from
// source and seen by its importers through export data, so the same
// declaration is several types.Object values with one key — import path,
// receiver type (for a method) and name. A struct field has no key.
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Var:
		if o.IsField() {
			return ""
		}
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			n := namedOf(recv.Type())
			if n == nil {
				return "" // an interface method
			}
			return o.Pkg().Path() + "." + n.Obj().Name() + "." + o.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// shortName is key without the module path, as the allowlist spells it.
func shortName(key string) string {
	return strings.TrimPrefix(strings.TrimPrefix(key, "conduit/internal/"), "conduit/")
}

// methodSig is a method's parameter and result types as a string with
// full import paths, comparable across type-checks (which may spell the
// empty interface either way).
func methodSig(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	s := ""
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			s += strings.ReplaceAll(types.TypeString(tup.At(i).Type(), nil), "interface{}", "any") + ","
		}
		s += ";"
	}
	if sig.Variadic() {
		s += "..."
	}
	return s
}

// TestExportedHaveCallers: every exported function, type, var, const and
// method of a non-main package is referenced by some non-test file other
// than at its declaration, so code only tests reach cannot stay. A method
// also counts as called when a type whose method set has it satisfies an
// interface, declared in the module or in a package it imports, that
// names it: fmt calls String, sort calls Less. Struct fields are
// TestOptionsHaveCallers' concern.
func TestExportedHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module via go list")
	}
	prog := loadModule(t)

	declared := map[string]types.Object{} // key -> declaration
	used := map[string]bool{}
	var named []*types.Named // every named non-interface type of the module
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && !tn.IsAlias() {
					ifaces[it] = true
				}
			}
		}
	}
	for _, pkg := range prog.Packages {
		scope := pkg.Types.Scope()
		addIfaces(scope)
		for _, imp := range pkg.Types.Imports() {
			addIfaces(imp.Scope())
		}
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				ifaces[it] = true
			}
		}
		for _, obj := range pkg.Info.Uses {
			if k := objectKey(obj); k != "" {
				used[k] = true
			}
		}
		main := pkg.Types.Name() == "main"
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !main && obj.Exported() {
				declared[objectKey(obj)] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			named = append(named, n)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); !main && m.Exported() {
					declared[objectKey(m)] = m
				}
			}
		}
	}

	// A type satisfies an interface when its pointer's method set has
	// every method of the interface with the same signature; each such
	// method, promoted or not, is then called through the interface.
	for _, n := range named {
		mset := types.NewMethodSet(types.NewPointer(n))
		methods := map[string]*types.Func{}
		for i := 0; i < mset.Len(); i++ {
			f := mset.At(i).Obj().(*types.Func)
			methods[f.Name()] = f
		}
	next:
		for it := range ifaces {
			if it.NumMethods() == 0 || !it.IsMethodSet() {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				f := methods[m.Name()]
				if f == nil || methodSig(f) != methodSig(m) {
					continue next
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				used[objectKey(methods[it.Method(i).Name()])] = true
			}
		}
	}

	var uncalled []string
	names := map[string]bool{}
	for k, obj := range declared {
		name := shortName(k)
		names[name] = true
		if used[k] {
			if exportedUncalled[name] != "" {
				t.Errorf("exportedUncalled entry %q is stale: non-test code references it now; delete the entry", name)
			}
			continue
		}
		if exportedUncalled[name] == "" {
			uncalled = append(uncalled, prog.Fset.Position(obj.Pos()).String()+": "+name)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s has no non-test caller: delete it, or give it a caller", u)
	}
	var gone []string
	for name := range exportedUncalled {
		if !names[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		t.Errorf("exportedUncalled entry %q names no exported declaration; delete it", name)
	}
}
