package conduit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionTypes are the option and config structs TestOptionsHaveCallers
// covers, by the directory of the package that declares them.
var optionTypes = []struct{ dir, name string }{
	{".", "ServeOptions"}, {".", "RecoveryOptions"}, {".", "ClusterOptions"},
	{".", "LatencyOptions"}, {".", "AvailabilityOptions"},
	{"internal/serve", "Config"}, {"internal/router", "Options"},
	{"internal/target", "Options"}, {"internal/trace", "Options"},
	{"internal/loadgen", "Spec"}, {"internal/faultinject", "Config"},
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

// typeRef names a type by its package's import path.
type typeRef struct{ pkg, name string }

// goFile is one parsed non-test file of the module.
type goFile struct {
	path    string
	pkg     string            // import path of the file's package
	imports map[string]string // local name -> import path
	f       *ast.File
}

// resolve names the type expr denotes in file g, following aliases.
func (g *goFile) resolve(expr ast.Expr, aliases map[typeRef]typeRef) (typeRef, bool) {
	var ref typeRef
	switch e := expr.(type) {
	case *ast.Ident:
		ref = typeRef{g.pkg, e.Name}
	case *ast.StarExpr:
		return g.resolve(e.X, aliases)
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		if !ok || g.imports[x.Name] == "" {
			return ref, false
		}
		ref = typeRef{g.imports[x.Name], e.Sel.Name}
	default:
		return ref, false
	}
	for {
		to, ok := aliases[ref]
		if !ok {
			return ref, true
		}
		ref = to
	}
}

// parseModule parses every non-test Go file of the module outside
// testdata and dot directories.
func parseModule(t *testing.T) []*goFile {
	t.Helper()
	var files []*goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		g := &goFile{path: path, pkg: "conduit", imports: map[string]string{}, f: f}
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			g.pkg += "/" + dir
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			g.imports[name] = p
		}
		files = append(files, g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOptionsHaveCallers: every exported field of the covered option
// and config structs is set by some non-test file other than the one
// declaring it — as a composite-literal key, or by assigning a selector
// on a variable of that type — so a knob nothing varies cannot stay a
// knob. Without type checking, a variable's type is known only from
// its declaration, a parameter list or a composite literal it is
// initialised from.
func TestOptionsHaveCallers(t *testing.T) {
	files := parseModule(t)
	aliases := map[typeRef]typeRef{}
	declared := map[typeRef]string{} // covered type -> declaring file
	fields := map[typeRef][]string{}
	covered := map[typeRef]string{} // covered type -> its allowlist prefix
	for _, o := range optionTypes {
		ref := typeRef{"conduit", o.name}
		prefix := o.name
		if o.dir != "." {
			ref.pkg += "/" + o.dir
			prefix = filepath.Base(o.dir) + "." + o.name
		}
		covered[ref] = prefix
	}
	for _, g := range files {
		for _, decl := range g.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				ref := typeRef{g.pkg, ts.Name.Name}
				if ts.Assign.IsValid() {
					if to, ok := g.resolve(ts.Type, nil); ok {
						aliases[ref] = to
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if _, cov := covered[ref]; !ok || !cov {
					continue
				}
				declared[ref] = g.path
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							fields[ref] = append(fields[ref], n.Name)
						}
					}
				}
			}
		}
	}

	set := map[typeRef]map[string]bool{}
	mark := func(g *goFile, ref typeRef, field string) {
		if _, ok := covered[ref]; ok && g.path != declared[ref] {
			if set[ref] == nil {
				set[ref] = map[string]bool{}
			}
			set[ref][field] = true
		}
	}
	for _, g := range files {
		for _, decl := range g.f.Decls {
			// vars maps a function's variables to the types their
			// declarations name (shadowing is ignored).
			vars := map[string]ast.Expr{}
			elided := map[*ast.CompositeLit]ast.Expr{}
			declare := func(fl *ast.FieldList) {
				if fl == nil {
					return
				}
				for _, f := range fl.List {
					for _, n := range f.Names {
						vars[n.Name] = f.Type
					}
				}
			}
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declare(fd.Recv)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncType:
					declare(n.Params)
					declare(n.Results)
				case *ast.ValueSpec:
					for _, name := range n.Names {
						if n.Type != nil {
							vars[name.Name] = n.Type
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE && len(n.Rhs) == len(n.Lhs) {
							rhs := n.Rhs[i]
							if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
								rhs = u.X
							}
							if cl, ok := rhs.(*ast.CompositeLit); ok && cl.Type != nil {
								vars[id.Name] = cl.Type
							}
						}
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if x, ok := sel.X.(*ast.Ident); ok && vars[x.Name] != nil {
							if ref, ok := g.resolve(vars[x.Name], aliases); ok {
								mark(g, ref, sel.Sel.Name)
							}
						}
					}
				case *ast.CompositeLit:
					typ := n.Type
					if typ == nil {
						typ = elided[n]
					}
					var elem ast.Expr
					switch tt := typ.(type) {
					case *ast.ArrayType:
						elem = tt.Elt
					case *ast.MapType:
						elem = tt.Value
					}
					ref, resolved := typeRef{}, false
					if typ != nil {
						ref, resolved = g.resolve(typ, aliases)
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && resolved {
								mark(g, ref, key.Name)
							}
							elt = kv.Value
						}
						if cl, ok := elt.(*ast.CompositeLit); ok && cl.Type == nil && elem != nil {
							elided[cl] = elem
						}
					}
				}
				return true
			})
		}
	}

	seen := map[string]bool{}
	for ref, prefix := range covered {
		if declared[ref] == "" {
			t.Errorf("covered type %s.%s is not declared", ref.pkg, ref.name)
		}
		for _, f := range fields[ref] {
			name := prefix + "." + f
			seen[name] = true
			if set[ref][f] {
				if optionsUncalled[name] != "" {
					t.Errorf("optionsUncalled entry %q is stale: non-test code sets it now; delete the entry", name)
				}
			} else if optionsUncalled[name] == "" {
				t.Errorf("%s is set by no non-test code outside %s: make it a constant, or give it a caller", name, declared[ref])
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
