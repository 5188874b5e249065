package scalefold

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestScalefoldHasNoProcessState keeps mutable process-wide state out of
// this package: every memo, store and counter belongs to the SweepSpec (or
// SearchSpec) the caller passes in. It parses the non-test files and fails
// on any package-level var outside the read-only declaration tables below.
// The twin of cmd/scalefold's TestCLIDoesNotLinkTrainingStack.
func TestScalefoldHasNoProcessState(t *testing.T) {
	readOnly := map[string]bool{"Ablations": true, "Figure3DAPs": true, "ladderRungs": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if !readOnly[name.Name] {
						t.Errorf("%s: package-level var %s is process state; put it on the spec", path, name.Name)
					}
				}
			}
		}
	}
	if parsed == 0 {
		t.Fatal("parsed no package files; wrong directory?")
	}
}
