package tetrabft_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// protocolTable is the one file that may ask which protocol it is looking at.
const protocolTable = "internal/scenario/protocols.go"

// TestProtocolNamesStayInTable keeps what a protocol is in one place: no
// non-test file but protocolTable compares against a protocol name. A
// switch case, == or != is refused on a scenario.Protocol constant, on the
// façade's alias of one, or on a string literal spelling one. Naming a
// protocol (Protocol: scenario.TetraBFTMulti) stays allowed; asking which
// one it is goes through a row of the table.
func TestProtocolNamesStayInTable(t *testing.T) {
	fset := token.NewFileSet()
	table, err := parser.ParseFile(fset, protocolTable, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	facade, err := parser.ParseFile(fset, "tetrabft.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	// names holds each constant as "package.Name"; values the strings.
	names, values := make(map[string]bool), make(map[string]bool)
	for _, spec := range constSpecs(table) {
		if id, ok := spec.Type.(*ast.Ident); !ok || id.Name != "Protocol" {
			continue
		}
		for i, name := range spec.Names {
			names["scenario."+name.Name] = true
			if lit, ok := spec.Values[i].(*ast.BasicLit); ok {
				v, _ := strconv.Unquote(lit.Value)
				values[v] = true
			}
		}
	}
	if len(names) < 9 {
		t.Fatalf("found %d Protocol constants in %s, want the table's 9 or more", len(names), protocolTable)
	}
	for _, spec := range constSpecs(facade) { // the façade's aliases
		for i, name := range spec.Names {
			if i < len(spec.Values) && isProtocolName(spec.Values[i], "", names, values) {
				names["tetrabft."+name.Name] = true
			}
		}
	}

	var found []string
	eachModuleFile(t, fset, func(file string, f *ast.File) {
		if file == protocolTable {
			return
		}
		pkg := f.Name.Name
		report := func(n ast.Node) {
			found = append(found, fset.Position(n.Pos()).String())
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) &&
					(isProtocolName(n.X, pkg, names, values) || isProtocolName(n.Y, pkg, names, values)) {
					report(n)
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if isProtocolName(e, pkg, names, values) {
						report(e)
					}
				}
			}
			return true
		})
	})
	for _, at := range found {
		t.Errorf("%s tests a protocol name: read a row of %s instead", at, protocolTable)
	}
}

// isProtocolName reports whether e, in a file of package pkg, is one of the
// protocol constants in names or a string literal among values.
func isProtocolName(e ast.Expr, pkg string, names, values map[string]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return names[pkg+"."+e.Name]
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && names[x.Name+"."+e.Sel.Name]
	case *ast.BasicLit:
		v, err := strconv.Unquote(e.Value)
		return e.Kind == token.STRING && err == nil && values[v]
	}
	return false
}

// constSpecs lists f's top-level constant specs.
func constSpecs(f *ast.File) []*ast.ValueSpec {
	var out []*ast.ValueSpec
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				out = append(out, spec.(*ast.ValueSpec))
			}
		}
	}
	return out
}
