package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// perLayer lists every per-layer metric, as BENCHMARK.json declares them.
// A layer the workload does not exercise reports zero.
var perLayer = []struct{ name, unit string }{
	{"dataset.prep_draw_us", "us"},
	{"dataset.geometry_us", "us"},
	{"workload.census_ms", "ms"},
	{"cluster.simulate_ms_p50", "ms"},
	{"cluster.simulate_ms_p90", "ms"},
	{"cluster.allocs_per_sim", "allocs"},
	{"cluster.busy_share", "ratio"},
	{"analytic.estimate_us_p50", "us"},
	{"analytic.estimate_us_p90", "us"},
	{"analytic.escalated_share", "ratio"},
	{"scenario.fingerprint_us", "us"},
	{"sweep.cell_ms_p50", "ms"},
	{"sweep.cell_ms_p90", "ms"},
	{"sweep.idle_share", "ratio"},
	{"sweep.simulated", "count"},
	{"sweep.analytic", "count"},
	{"sweep.memo_hits", "count"},
	{"sweep.store_hits", "count"},
	{"sweep.remote", "count"},
	{"store.get_us_p50", "us"},
	{"store.get_us_p90", "us"},
	{"store.put_us_p50", "us"},
	{"store.put_us_p90", "us"},
	{"store.reopen_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.run_ms_p90", "ms"},
	{"service.stream_lag_ms", "ms"},
	{"service.class_latency_p50_ms.repeat", "ms"},
	{"service.class_latency_p50_ms.new", "ms"},
	{"service.class_latency_p50_ms.analytic", "ms"},
	{"service.class_latency_p50_ms.search", "ms"},
	{"service.refused", "count"},
	{"search.probes", "count"},
	{"search.exact_probes", "count"},
	{"search.probe_ms", "ms"},
	{"fabric.claim_rtt_ms_p50", "ms"},
	{"fabric.claim_rtt_ms_p90", "ms"},
	{"fabric.complete_rtt_ms_p50", "ms"},
	{"fabric.complete_rtt_ms_p90", "ms"},
	{"fabric.worker_cell_ms", "ms"},
	{"fabric.dispatch_overhead_share", "ratio"},
	{"fabric.reassigned", "count"},
	{"fabric.rejected", "count"},
	{"obs.trace_overhead_share", "ratio"},
}

// provenance records where and on what a run measured.
func provenance(root, name string, seed int64, reps int) map[string]any {
	nclients := 0
	nfabric := 0
	switch name {
	case "serve-mixed":
		nclients = min(2, runtime.NumCPU())
	case "fabric-sweep":
		nclients, nfabric = 1, min(2, runtime.NumCPU())
	}
	return map[string]any{
		"workload":       name,
		"seed":           seed,
		"repetitions":    reps,
		"cpu":            cpuModel(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         commit(root),
		"source_sha256":  sourceDigest(root),
		"clients":        nclients,
		"engine_workers": runtime.GOMAXPROCS(0),
		"fabric_workers": nfabric,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git revision, or "unknown" outside a git tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root (build
// outputs excluded), identifying the measured code where git cannot.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); d.Type().IsRegular() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				rel, _ := filepath.Rel(root, path)
				h.Write([]byte(rel + "\x00"))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func writeRecord(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
