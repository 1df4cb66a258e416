package tetrabft_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxFuncLines is the longest function the module accepts, counted from the
// func keyword to the closing brace.
const maxFuncLines = 150

// longFuncs are the functions already longer than maxFuncLines, each capped
// at its length today. A cap may only go down: shorten the function and
// lower its entry, or delete the entry once the function fits the limit.
// Keys are "file:Func", or "file:Recv.Method" for a method.
var longFuncs = map[string]int{
	"internal/scenario/spec.go:Scenario.compile":    333,
	"internal/sweep/named.go:Named":                 216,
	"internal/scenario/named.go:Named":              211,
	"cmd/tetrabft-bench/main.go:run":                170,
	"internal/scenario/spec.go:plan.compileSharded": 158,
}

// TestFunctionLengthRatchet parses every non-test Go file of this module (a
// directory with its own go.mod, such as benchmark/, is another module)
// and holds each function to maxFuncLines, or to its cap in longFuncs.
func TestFunctionLengthRatchet(t *testing.T) {
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
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
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := filepath.ToSlash(path) + ":" + funcName(fn)
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			limit, capped := longFuncs[key]
			seen[key] = capped
			switch {
			case !capped && lines > maxFuncLines:
				t.Errorf("%s is %d lines, over the %d-line limit", key, lines, maxFuncLines)
			case capped && lines > limit:
				t.Errorf("%s is %d lines, over its cap of %d", key, lines, limit)
			case capped && lines < limit:
				t.Errorf("%s is down to %d lines: lower its cap from %d (or drop it at %d or fewer)", key, lines, limit, maxFuncLines)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range longFuncs {
		if !seen[key] {
			t.Errorf("%s is capped but no longer exists: drop its entry", key)
		}
	}
}

// funcName is fn's name, qualified by its receiver's type for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
