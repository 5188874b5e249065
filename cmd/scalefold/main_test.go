package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/docs"
	"repro/internal/scenario"
)

func TestUnknownCommandPrintsDocumentedListAndExits2(t *testing.T) {
	var buf bytes.Buffer
	if code := unknownCommand(&buf, "figz"); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	out := buf.String()
	if !strings.Contains(out, `unknown command "figz"`) {
		t.Fatalf("message must name the bad command:\n%s", out)
	}
	subs := docs.Subcommands()
	if len(subs) == 0 {
		t.Fatal("docs.Subcommands parsed nothing from cli.md")
	}
	for _, name := range subs {
		if !strings.Contains(out, "  "+name+"\n") {
			t.Fatalf("command list must include %q (from docs/cli.md):\n%s", name, out)
		}
	}
	if !strings.Contains(out, "scalefold help") {
		t.Fatalf("message must point at the full reference:\n%s", out)
	}
}

// TestCheckModeListsValidSet pins the CLI half of -mode hardening: every
// recognized spelling passes, anything else is the exit-2 error naming the
// offender and listing the valid set (parseMode prints it and exits).
func TestCheckModeListsValidSet(t *testing.T) {
	for _, ok := range append([]string{""}, scenario.Modes...) {
		if err := checkMode(ok); err != nil {
			t.Errorf("checkMode(%q) = %v, want nil", ok, err)
		}
	}
	err := checkMode("psychic")
	if err == nil {
		t.Fatal("checkMode accepted an unknown mode")
	}
	if !strings.Contains(err.Error(), `"psychic"`) {
		t.Errorf("error %q does not name the offending mode", err)
	}
	for _, want := range scenario.Modes {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list valid mode %q", err, want)
		}
	}
}

// Every dispatchable command must be documented in cli.md — the list the
// unknown-command message prints — and vice versa for the figure runners.
func TestDispatchMatchesDocumentation(t *testing.T) {
	documented := map[string]bool{}
	for _, name := range docs.Subcommands() {
		documented[name] = true
	}
	for name := range runners {
		if !documented[name] {
			t.Errorf("runner %q missing from docs/cli.md", name)
		}
	}
	for _, name := range []string{"all", "sweep", "resilience", "optimize", "serve", "worker", "submit", "jobs", "help"} {
		if !documented[name] {
			t.Errorf("subcommand %q missing from docs/cli.md", name)
		}
	}
	for _, name := range allRunners {
		if _, ok := runners[name]; !ok {
			t.Errorf("allRunners entry %q has no runner", name)
		}
	}
}

// TestCLIDoesNotLinkTrainingStack keeps the miniature AlphaFold's numeric
// stack out of the what-if engine: the CLI needs only the model geometry
// (package model), never the tensors, autodiff or fused optimizer kernels
// that package train builds on. It walks the non-test imports of this
// package transitively, parsing import clauses only.
func TestCLIDoesNotLinkTrainingStack(t *testing.T) {
	const module = "repro/"
	banned := map[string]bool{
		"repro/internal/tensor":   true,
		"repro/internal/autograd": true,
		"repro/internal/kernels":  true,
	}
	root := filepath.Join("..", "..")
	via := map[string]string{"repro/cmd/scalefold": ""}
	queue := []string{"repro/cmd/scalefold"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, module)))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				dep, _ := strconv.Unquote(imp.Path.Value)
				if _, seen := via[dep]; seen || !strings.HasPrefix(dep, module) {
					continue
				}
				via[dep] = pkg
				if banned[dep] {
					chain := dep
					for p := pkg; p != ""; p = via[p] {
						chain = p + " -> " + chain
					}
					t.Errorf("CLI links the training stack: %s", chain)
				}
				queue = append(queue, dep)
			}
		}
	}
	if len(via) < 2 {
		t.Fatalf("import walk found %d packages from %s; wrong root?", len(via), root)
	}
}
