package lint_test

import (
	"go/ast"
	"go/types"
	"path"
	"sort"
	"testing"
)

// optionTypes are the option and config structs TestOptionsHaveCallers
// covers, by the import path of the package that declares them.
var optionTypes = []struct{ pkg, name string }{
	{"conduit", "ServeOptions"}, {"conduit", "RecoveryOptions"}, {"conduit", "ClusterOptions"},
	{"conduit", "LatencyOptions"}, {"conduit", "AvailabilityOptions"},
	{"conduit/internal/serve", "Config"}, {"conduit/internal/router", "Options"},
	{"conduit/internal/target", "Options"}, {"conduit/internal/trace", "Options"},
	{"conduit/internal/loadgen", "Spec"}, {"conduit/internal/faultinject", "Config"},
}

// optionsUncalled lists the covered fields no non-test code sets, each
// with the reason it stays a field. Entries may only be removed: an
// entry whose field gains a setter, or is gone, fails the test.
var optionsUncalled = map[string]string{
	"LatencyOptions.Workloads":      "only the reference-system identity test sets it, to keep its sweep small",
	"LatencyOptions.Prefork":        "only the reference-system identity test sets it, to keep its sweep small",
	"faultinject.Config.SlowFactor": "only tests and the fault-log golden set it",
	"faultinject.Config.PanicRate":  "only tests and the fault-log golden set it",
	"loadgen.Spec.MaxEvents":        "only wiretest's closed-loop schedule sets it",
}

// namedOf is the named type t denotes, through pointers and aliases.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// fieldOwner is the named struct that declares the field sel selects,
// following the embedded fields a promoted selection walks through.
func fieldOwner(sel *types.Selection) *types.Named {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		t = namedOf(t).Underlying().(*types.Struct).Field(i).Type()
	}
	return namedOf(t)
}

// TestOptionsHaveCallers: every exported field of the covered option
// and config structs is set by some non-test file other than the one
// declaring it — as a composite-literal key, or as the target of an
// assignment — so a knob nothing varies cannot stay a knob.
func TestOptionsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module via go list")
	}
	prog := loadModule(t)
	covered := map[string]string{} // covered type -> its allowlist prefix
	for _, o := range optionTypes {
		prefix := o.name
		if o.pkg != "conduit" {
			prefix = path.Base(o.pkg) + "." + o.name
		}
		covered[o.pkg+"."+o.name] = prefix
	}

	declared := map[string]string{} // covered type -> declaring file
	fields := map[string][]string{}
	for _, pkg := range prog.Packages {
		for _, o := range optionTypes {
			if o.pkg != pkg.Types.Path() {
				continue
			}
			tn, ok := pkg.Types.Scope().Lookup(o.name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			key := o.pkg + "." + o.name
			declared[key] = prog.Fset.Position(tn.Pos()).Filename
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[key] = append(fields[key], f.Name())
				}
			}
		}
	}

	set := map[string]map[string]bool{}
	mark := func(file string, owner *types.Named, field string) {
		if owner == nil {
			return
		}
		key := objectKey(owner.Obj())
		if _, ok := covered[key]; !ok || file == declared[key] {
			return
		}
		if set[key] == nil {
			set[key] = map[string]bool{}
		}
		set[key][field] = true
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			file := prog.Fset.Position(f.Pos()).Filename
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					owner := namedOf(pkg.Info.TypeOf(n))
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(file, owner, key.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							mark(file, fieldOwner(s), sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}

	seen := map[string]bool{}
	for key, prefix := range covered {
		if declared[key] == "" {
			t.Errorf("covered type %s is not declared", key)
		}
		for _, f := range fields[key] {
			name := prefix + "." + f
			seen[name] = true
			if set[key][f] {
				if optionsUncalled[name] != "" {
					t.Errorf("optionsUncalled entry %q is stale: non-test code sets it now; delete the entry", name)
				}
			} else if optionsUncalled[name] == "" {
				t.Errorf("%s is set by no non-test code outside %s: make it a constant, or give it a caller", name, declared[key])
			}
		}
	}
	var gone []string
	for name := range optionsUncalled {
		if !seen[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		t.Errorf("optionsUncalled entry %q names no covered field; delete it", name)
	}
}
