package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scalefold"
	"repro/internal/sweep"
)

// TestAllMatchesGolden pins `scalefold all` byte for byte: every figure
// runner, in order, printed in-process with stdout captured. Regenerate
// testdata/all.golden only on a deliberate output change:
//
//	go run ./cmd/scalefold all > cmd/scalefold/testdata/all.golden
func TestAllMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure (seconds); skipped under -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() {
		all(scalefold.SweepSpec{Cache: sweep.NewCache[cluster.Result]()})
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("scalefold all drifted from testdata/all.golden:\n--- got ---\n%s", got)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return <-out
}
