package fisql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOracleIsTestOnly keeps engine.Executor.Select — the plan-less
// interpreter the differential tests compare the planned engine against —
// out of every production path: no non-test Go file outside internal/engine
// may call it. Executor is the only type in the module with a Select method
// (the test checks that too), so the check matches any one-argument
// x.Select(...) call whose x is not an imported package.
func TestOracleIsTestOnly(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		inEngine := filepath.Dir(path) == filepath.Join("internal", "engine")
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Select" && !inEngine {
				t.Errorf("%s: declares a Select method, so this check can no longer tell Executor.Select apart by name", fset.Position(fd.Pos()))
			}
		}
		if inEngine {
			return nil
		}
		imported := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Select" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && imported[id.Name] {
				return true
			}
			t.Errorf("%s: calls the engine's plan-less oracle; run a plan (engine.Prepare or PlanSelect, then Executor.Run)", fset.Position(call.Pos()))
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
