package instantcheck

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

// TestNoEnvironmentKnobs pins that the library reads no process
// environment: no simulation, hashing or detector construction path may
// change behavior with an environment variable. Reference paths are
// selected by explicit configuration (sim.Config, core.Campaign) instead.
// It parses every non-test Go file at the module root and under internal/
// and fails on any os.Getenv or os.LookupEnv call.
func TestNoEnvironmentKnobs(t *testing.T) {
	var files []string
	for _, root := range []string{".", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (root == "." || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(files) < 50 {
		t.Fatalf("scanned only %d files; the walk is broken", len(files))
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		osName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName &&
				(sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv") {
				t.Errorf("%s: os.%s reads the environment", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
