package tetrabft_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFrontDoorCoversBenchmark: every name that a non-test file of the
// benchmark harness reads from an internal package has a counterpart in the
// façade — an alias of that type, a var or const bound to it, or a one-line
// wrapper of that function — so the harness can read the library through
// the façade by renaming alone. probes.go is exempt: its per-layer probes
// measure internal layers by design. Counterparts match by the object they
// name (import path and name), not by their own name: the façade's
// Persister is core's, so multishot's Persister needs a counterpart of its
// own. The test only parses the harness's files.
func TestFrontDoorCoversBenchmark(t *testing.T) {
	covered := facadeTargets(t)
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	read := make(map[string]token.Position)
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") || filepath.Base(file) == "probes.go" {
			continue
		}
		// With object resolution on, an identifier declared in the file
		// (a local that shadows an import's name) carries its object.
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := importPaths(f, "tetrabft/internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && imports[id.Name] != "" {
					target := imports[id.Name] + "." + sel.Sel.Name
					if _, seen := read[target]; !seen {
						read[target] = fset.Position(sel.Pos())
					}
				}
			}
			return true
		})
	}
	var missing []string
	for target, pos := range read {
		if _, ok := covered[target]; !ok {
			missing = append(missing, target+" (first read at "+pos.String()+")")
		}
	}
	slices.Sort(missing)
	for _, m := range missing {
		t.Errorf("the façade has no alias or one-line wrapper of %s", m)
	}
}

// TestOneReplicaLaunchSite: outside the benchmark harness and the façade's
// wrappers, one non-test call builds a restored multishot node and one
// builds a TCP runtime, both in the replica host, so every recoverable
// replica of the library launches, dies and comes back the same way.
func TestOneReplicaLaunchSite(t *testing.T) {
	want := map[string]bool{"tetrabft/internal/multishot.Restore": true, "tetrabft/internal/transport.New": true}
	sites := make(map[string][]string)
	fset := token.NewFileSet()
	eachModuleFile(t, fset, func(file string, f *ast.File) {
		imports := importPaths(f, "tetrabft/")
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && file == "tetrabft.go" && wrapped(fn, imports) != "" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if target := selected(call.Fun, imports); want[target] {
						sites[target] = append(sites[target], fset.Position(call.Pos()).String())
					}
				}
				return true
			})
		}
	})
	for target := range want {
		if s := sites[target]; len(s) != 1 || !strings.HasPrefix(s[0], "internal/replica/") {
			t.Errorf("%s is called at %v, want one call site, in internal/replica", target, s)
		}
	}
}

// facadeTargets maps each internal object the façade (tetrabft.go) aliases,
// binds or wraps in one line, as "import/path.Name", to the façade's name
// for it.
func facadeTargets(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "tetrabft.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	imports := importPaths(f, "tetrabft/")
	out := make(map[string]string)
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if target := wrapped(d, imports); target != "" {
				out[target] = d.Name.Name
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if target := selected(s.Type, imports); s.Assign.IsValid() && target != "" {
						out[target] = s.Name.Name
					}
				case *ast.ValueSpec:
					if len(s.Names) == 1 && len(s.Values) == 1 {
						if target := selected(s.Values[0], imports); target != "" {
							out[target] = s.Names[0].Name
						}
					}
				}
			}
		}
	}
	return out
}

// wrapped is the function fn wraps in one line — a body that is a single
// return of a call to it — as "import/path.Name", or "" when fn is not such
// a wrapper.
func wrapped(fn *ast.FuncDecl, imports map[string]string) string {
	if fn.Recv != nil || fn.Body == nil || len(fn.Body.List) != 1 {
		return ""
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return ""
	}
	return selected(call.Fun, imports)
}

// selected resolves expr, when it is pkg.Name on an import of imports, to
// "import/path.Name"; otherwise it returns "".
func selected(expr ast.Expr, imports map[string]string) string {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || imports[id.Name] == "" {
		return ""
	}
	return imports[id.Name] + "." + sel.Sel.Name
}

// importPaths maps the name each import of f under prefix is known by in f
// to its path.
func importPaths(f *ast.File, prefix string) map[string]string {
	out := make(map[string]string)
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !strings.HasPrefix(p, prefix) {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = p
	}
	return out
}
