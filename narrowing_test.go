package tetrabft_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path"
	"strings"
	"testing"
)

// wideTypes are the 64-bit integer types of internal/types. Where int is 32
// bits wide, converting one of their values to int or NodeID wraps it
// silently, so a range check against the converted value passes for a value
// it should reject.
var wideTypes = map[string]bool{"Slot": true, "View": true, "Time": true, "Duration": true, "TimerID": true}

// narrowingHelper is the one function allowed such a conversion: it checks
// the round trip before it hands the result out.
const narrowingHelper = "internal/rbc.originOf"

// TestNoNarrowingConversions type-checks every non-test package of the
// module and fails on each conversion of a non-constant wideTypes value to
// int or NodeID, also through an inner integer conversion such as
// int(int64(slot)), outside narrowingHelper. Compare in the wide type and
// index with it instead: slices index, and make sizes, with any integer
// type.
func TestNoNarrowingConversions(t *testing.T) {
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File)
	eachModuleFile(t, fset, func(file string, f *ast.File) {
		files[path.Dir(file)] = append(files[path.Dir(file)], f)
	})
	m := &moduleImporter{fset: fset, files: files, pkgs: make(map[string]*types.Package),
		std: importer.ForCompiler(fset, "gc", nil), info: &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}}
	for dir := range files {
		if _, err := m.Import(path.Join("tetrabft", dir)); err != nil {
			t.Fatal(err)
		}
	}
	sites := 0
	for dir, fs := range files {
		for _, f := range fs {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || dir+"."+funcName(fn) == narrowingHelper {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if from := m.narrowing(n); from != "" {
						sites++
						t.Errorf("%s: converts a types.%s to %s", fset.Position(n.Pos()), from, m.info.Types[n.(*ast.CallExpr).Fun].Type)
					}
					return true
				})
			}
		}
	}
	t.Logf("%d narrowing conversions", sites)
}

// moduleImporter type-checks the module's packages from the parsed files,
// each once, and imports the standard library from export data.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by slash-separated directory
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (m *moduleImporter) Import(importPath string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(importPath, "tetrabft/")
	if importPath == "tetrabft" {
		dir, ok = ".", true
	}
	if !ok {
		return m.std.Import(importPath)
	}
	if pkg := m.pkgs[dir]; pkg != nil {
		return pkg, nil
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(importPath, m.fset, m.files[dir], m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	m.pkgs[dir] = pkg
	return pkg, nil
}

// narrowing names the wide type n converts to int or NodeID, "" when n is
// no such conversion.
func (m *moduleImporter) narrowing(n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok || !m.conversion(call) || len(call.Args) != 1 {
		return ""
	}
	to := m.info.Types[call.Fun].Type
	if to != types.Typ[types.Int] && !isWide(to, "NodeID") {
		return ""
	}
	arg := call.Args[0]
	for {
		arg = ast.Unparen(arg)
		inner, ok := arg.(*ast.CallExpr)
		if !ok || !m.conversion(inner) || len(inner.Args) != 1 {
			break
		}
		if b, ok := m.info.Types[inner.Fun].Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
			break
		}
		arg = inner.Args[0]
	}
	tv := m.info.Types[arg]
	if tv.Value != nil {
		return "" // a constant's range is checked by the compiler
	}
	for name := range wideTypes {
		if isWide(tv.Type, name) {
			return name
		}
	}
	return ""
}

func (m *moduleImporter) conversion(call *ast.CallExpr) bool {
	return m.info.Types[call.Fun].IsType()
}

// isWide reports whether t is the internal/types type named name.
func isWide(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "tetrabft/internal/types"
}
