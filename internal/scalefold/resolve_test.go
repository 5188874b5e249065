package scalefold

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

// TestOneResolvePath fails if non-test code under internal/ or cmd/ calls
// cluster.Simulate or analytic.Estimate anywhere but resolve.go: every cell
// resolves through the resolver, so memo, store, metrics and the legacy
// upgrade rule apply to all of them. (The cluster and analytic packages call
// their own functions unqualified, so they never match.)
func TestOneResolvePath(t *testing.T) {
	banned := map[string]string{
		"repro/internal/cluster":  "Simulate",
		"repro/internal/analytic": "Estimate",
	}
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if path == filepath.Join("..", "scalefold", "resolve.go") {
				return nil
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			names := map[string]string{} // import name -> banned function
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if fn, ok := banned[p]; ok {
					name := p[strings.LastIndex(p, "/")+1:]
					if imp.Name != nil {
						name = imp.Name.Name
					}
					names[name] = fn
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && names[id.Name] == sel.Sel.Name {
						t.Errorf("%s: calls %s.%s; resolve the cell through resolver.resolve", path, id.Name, sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
