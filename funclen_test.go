package tetrabft_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// maxFuncLines is the longest function the module accepts, counted from the
// func keyword to the closing brace. It holds every function, with no
// exceptions, and may only go down.
const maxFuncLines = 150

// engineFuncLines is the longest function accepted in engineFiles, the
// files of the scenario engines' runners (runSim, runSeq, runTCP) and
// cluster types.
const engineFuncLines = 120

var engineFiles = map[string]bool{
	"internal/scenario/run.go": true,
	"internal/scenario/seq.go": true,
	"internal/scenario/tcp.go": true,
}

// TestFunctionLengthRatchet holds each function of the module to
// maxFuncLines, and each function of engineFiles to engineFuncLines.
func TestFunctionLengthRatchet(t *testing.T) {
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	eachModuleFile(t, fset, func(file string, f *ast.File) {
		seen[file] = true
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := file + ":" + funcName(fn)
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			switch {
			case engineFiles[file] && lines > engineFuncLines:
				t.Errorf("%s is %d lines, over the %d-line limit of the engine files", key, lines, engineFuncLines)
			case lines > maxFuncLines:
				t.Errorf("%s is %d lines, over the %d-line limit", key, lines, maxFuncLines)
			}
		}
	})
	for file := range engineFiles {
		if !seen[file] {
			t.Errorf("engine file %s no longer exists: drop its entry", file)
		}
	}
}

// packageLines caps the non-test lines of the packages whose size is
// tracked, each at its count today. A cap may only go down: when a package
// shrinks, lower its entry to the new count.
var packageLines = map[string]int{
	"internal/core":       1229,
	"internal/ithotstuff": 399,
	"internal/multishot":  1623,
	"internal/pbft":       352,
	"internal/replica":    253,
	"internal/scenario":   3248,
	"internal/sweep":      1946,
}

// TestPackageLinesRatchet holds each package of packageLines to its cap,
// counting lines the way wc -l does.
func TestPackageLinesRatchet(t *testing.T) {
	fset := token.NewFileSet()
	lines := make(map[string]int)
	eachModuleFile(t, fset, func(file string, f *ast.File) {
		lines[path.Dir(file)] += fset.File(f.FileStart).LineCount()
	})
	for pkg, limit := range packageLines {
		switch got := lines[pkg]; {
		case got == 0:
			t.Errorf("package %s has no non-test lines: drop its entry", pkg)
		case got > limit:
			t.Errorf("package %s has %d non-test lines, over its cap of %d", pkg, got, limit)
		case got < limit:
			t.Errorf("package %s is down to %d non-test lines: lower its cap from %d", pkg, got, limit)
		}
	}
}

// eachModuleFile parses every non-test Go file of this module (a directory
// with its own go.mod, such as benchmark/, is another module) and hands it
// to fn under its slash-separated path.
func eachModuleFile(t *testing.T, fset *token.FileSet, fn func(file string, f *ast.File)) {
	t.Helper()
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
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
