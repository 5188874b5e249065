package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perturb"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// goldenPerturb exercises every perturbation stream draw: the straggler
// draw at stream creation, Poisson stalls with exponential lengths, and
// per-step failures.
var goldenPerturb = perturb.Spec{
	SlowdownProb: 0.3, SlowdownFactor: 1.6,
	StallRate: 0.5, StallMean: 2,
	FailProb: 0.02, RestartCost: 60,
}

// TestSimulateGolden pins exact Simulate Results, perturbed and not, as
// SHA-256 digests of their JSON encoding. The sweep CSV and the figures only
// cover unperturbed runs; this matrix is what proves that a change to the
// RNG plumbing (dataset draws, rank jitter, perturbation streams) leaves
// every exact value bit-identical.
func TestSimulateGolden(t *testing.T) {
	path := filepath.Join("testdata", "simulate_golden.txt")
	prog := baselineProg()
	var got strings.Builder
	got.WriteString("# SHA-256 of json.Marshal(cluster.Simulate(...)) per case\n")
	got.WriteString("# regenerate deliberately: go test ./internal/cluster -run SimulateGolden -update\n")
	for _, perturbed := range []bool{false, true} {
		for _, dapDeg := range []int{1, 4} {
			for _, seed := range []int64{1, 7} {
				for _, ranks := range []int{8, 64} {
					o := quickOpts(seed)
					name := "clean"
					if perturbed {
						o.Perturb = goldenPerturb
						name = "perturbed"
					}
					b, err := json.Marshal(Simulate(prog, ranks, dapDeg, o))
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "%s/dap=%d/seed=%d/ranks=%d\t%x\n", name, dapDeg, seed, ranks, sha256.Sum256(b))
				}
			}
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("exact Simulate results drifted from %s.\n--- want ---\n%s\n--- got ---\n%s", path, want, got.String())
	}
}
