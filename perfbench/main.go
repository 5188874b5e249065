// Command perfbench is the what-if engine's benchmark. It drives the
// program only through public entry points — SweepSpec.Run, an in-process
// service.Server over loopback HTTP, fabric.Worker.Run, and direct calls
// into the dataset, workload, cluster, analytic, scenario and store layers —
// and checks every output it times.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Each repetition runs in a fresh child process, so every one starts with
// the program's process-wide caches (the scalefold memo, the analytic
// prep-time and census caches) empty. With --trace 0 the run repeats the
// workload for S seconds and prints the end-to-end metrics; with --trace 1
// it runs one untraced and one traced repetition plus direct layer replays
// and prints the per-layer metrics. The last line of standard output is
// the run's JSON result. Build and run it from the repository root with
// `bash perfbench/run.sh`.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/scalefold"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "record-analytic-digests" {
		os.Exit(recordAnalyticDigests())
	}
	os.Exit(parentMain(os.Args[1:]))
}

//go:embed testdata/sweep_default.csv
var sweepDefaultCSV []byte

//go:embed testdata/analytic_digests.txt
var analyticDigests string

// workloadDef is one benchmark workload, parent side.
type workloadDef struct {
	// prepare builds the run's fixtures under dir and returns the digest
	// every checked operation key must reproduce.
	prepare func(dir string, seed int64) (map[string]string, error)
	// repDir readies one repetition's private directory.
	repDir func(fixture, dir string) error
	// rate is the end-to-end throughput the trace overhead compares.
	rate string
}

func noDir(string, string) error { return nil }

var workloads = map[string]workloadDef{
	"sweep-exact": {
		prepare: func(string, int64) (map[string]string, error) {
			return map[string]string{"pass": digestOf(sweepDefaultCSV)}, nil
		},
		repDir: noDir, rate: "cells_per_s",
	},
	"sweep-analytic": {
		prepare: func(_ string, seed int64) (map[string]string, error) {
			v := analyticVariant(seed)
			for _, line := range strings.Split(analyticDigests, "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == strconv.Itoa(v) {
					return map[string]string{"pass": f[1]}, nil
				}
			}
			return nil, fmt.Errorf("no committed digest for analytic variant %d", v)
		},
		repDir: noDir, rate: "cells_per_s",
	},
	"serve-mixed": {
		prepare: func(dir string, seed int64) (map[string]string, error) {
			if err := populateServeStore(filepath.Join(dir, "fixture"), seed, fillerRecords); err != nil {
				return nil, err
			}
			return serveExpected(seed)
		},
		repDir: func(fixture, dir string) error { return copyDir(fixture, filepath.Join(dir, "store")) },
		rate:   "jobs_per_s",
	},
	"fabric-sweep": {
		prepare: func(_ string, seed int64) (map[string]string, error) {
			spec := sweepOf(fabricSpec(seed))
			rows, err := runLocal(spec)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := scalefold.SweepTable(rows).WriteCSV(&buf); err != nil {
				return nil, err
			}
			return map[string]string{"job": digestOf(buf.Bytes())}, nil
		},
		repDir: noDir, rate: "cells_per_s",
	},
}

// minReps is the fewest untraced repetitions a run makes, whatever its
// length. setupProbes more children only set up, so that setup_s is a
// median over several set-ups even when repetitions are long.
const (
	minReps     = 3
	setupProbes = 9
)

// deadline bounds a whole run, children included, below the 180 s a run
// may take.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep-exact, sweep-analytic, serve-mixed or fabric-sweep")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "how long to repeat the workload (untraced runs)")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := measure(*name, wl, *seed, time.Duration(*seconds)*time.Second, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measure makes one run: inputs and expected outputs, the repetitions,
// the output checks, and the report.
func measure(name string, wl workloadDef, seed int64, seconds time.Duration, trace int) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	t0 := time.Now()
	want, err := wl.prepare(work, seed)
	if err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: inputs and expected outputs ready in %.1fs\n", name, seed, time.Since(t0).Seconds())

	r := runner{ctx: ctx, name: name, seed: seed, wl: wl, work: work, fixture: filepath.Join(work, "fixture"),
		run: fmt.Sprintf("%s/seed=%d", name, seed)}
	// A first repetition runs slower on an idle machine; it is checked but
	// not measured.
	warm, err := r.child("rep", "")
	if err != nil {
		return err
	}
	checked := []repResult{warm}
	var reps []repResult
	var setups []float64
	layer := map[string]float64{}
	if trace == 0 {
		for start := time.Now(); len(reps) < minReps || time.Since(start) < seconds; {
			rep, err := r.child("rep", "")
			if err != nil {
				return err
			}
			reps = append(reps, rep)
			setups = append(setups, rep.SetupS)
		}
		for i := 0; i < setupProbes; i++ {
			rep, err := r.child("setup", "")
			if err != nil {
				return err
			}
			setups = append(setups, rep.SetupS)
		}
	} else {
		plain, err := r.child("rep", "")
		if err != nil {
			return err
		}
		traced, err := r.child("traced", filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed)))
		if err != nil {
			return err
		}
		layers, err := r.child("layers", "")
		if err != nil {
			return err
		}
		reps = []repResult{plain, traced}
		maps.Copy(layer, traced.Layer)
		maps.Copy(layer, layers.Layer)
		layer["obs.trace_overhead_share"] = 1 - endToEnd(reps[1:], nil)[wl.rate].Value/endToEnd(reps[:1], nil)[wl.rate].Value
	}

	res := result{Metrics: map[string]metric{}}
	for _, rep := range append(checked, reps...) {
		for _, op := range rep.Ops {
			res.Attempted++
			if op.Err != "" || op.Digest != want[op.Key] {
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s %s failed its output check: %s\n", op.Class, op.Key, op.Err)
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if trace == 1 {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
		}
	} else {
		res.Metrics = endToEnd(reps, setups)
	}
	failedShare := float64(res.Failed) / float64(res.Attempted)
	prov := provenance(root, name, seed, len(reps))
	if err := writeRecord(filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, trace)),
		map[string]any{"provenance": prov, "result": res, "failed_share": failedShare, "reps": reps}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	provLine, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("%-40s %14.6g %s\n", "failed_share", failedShare, "ratio")
	fmt.Printf("provenance %s\n", provLine)
	fmt.Println(string(line))
	return nil
}

// endToEnd aggregates untraced repetitions into the end-to-end metrics:
// medians over repetitions of throughput, peak memory and set-up time (the
// set-up-only probes included), and latency quantiles over every operation.
func endToEnd(reps []repResult, setups []float64) map[string]metric {
	var cellRate, cellCPU, jobRate, lat, rss []float64
	for _, rep := range reps {
		cells := 0
		for _, op := range rep.Ops {
			cells += op.Cells
			lat = append(lat, op.LatencyMS)
		}
		cellRate = append(cellRate, float64(cells)/rep.PassS)
		cellCPU = append(cellCPU, 1000*rep.PassCPUS/float64(cells))
		jobRate = append(jobRate, float64(len(rep.Ops))/rep.PassS)
		rss = append(rss, rep.RSSMB)
	}
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"cells_per_s":        {median(cellRate), "cells/s"},
		"cpu_ms_per_cell":    {median(cellCPU), "ms"},
		"jobs_per_s":         {median(jobRate), "jobs/s"},
		"job_latency_p50_ms": {median(lat), "ms"},
		"job_latency_p90_ms": {quantile(lat, 0.9), "ms"},
		"peak_rss_mb":        {median(rss), "MB"},
	}
}

// runner spawns a run's child processes.
type runner struct {
	ctx     context.Context
	name    string
	seed    int64
	wl      workloadDef
	work    string
	fixture string
	run     string // run id recorded on spans
	reps    int
}

// child runs one repetition (mode "rep" or "traced"), a set-up alone (mode
// "setup") or the layer replay (mode "layers") in a fresh process and
// returns its report.
func (r *runner) child(mode, spanFile string) (repResult, error) {
	r.reps++
	dir := filepath.Join(r.work, fmt.Sprintf("rep%d", r.reps))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(dir)
	if err := r.wl.repDir(r.fixture, dir); err != nil {
		return repResult{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	cmd := exec.CommandContext(r.ctx, exe, "child", "-mode", mode, "-workload", r.name,
		"-seed", strconv.FormatInt(r.seed, 10), "-dir", dir, "-run", fmt.Sprintf("%s/rep=%d", r.run, r.reps),
		"-spans", spanFile, "-spawn", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("%s child: %w", mode, err)
	}
	var rep repResult
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return repResult{}, fmt.Errorf("%s child report: %w", mode, err)
	}
	return rep, nil
}

// childArgs are a child process's flags.
type childArgs struct {
	mode, workload, dir, run, spans string
	seed, spawn                     int64
}

// sinceSpawn is the time since the parent started this process, in seconds.
func (a childArgs) sinceSpawn() float64 { return time.Since(time.Unix(0, a.spawn)).Seconds() }

func childMain(args []string) int {
	var a childArgs
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.StringVar(&a.mode, "mode", "rep", "rep, traced, setup or layers")
	fs.StringVar(&a.workload, "workload", "", "workload name")
	fs.StringVar(&a.dir, "dir", "", "the repetition's private directory")
	fs.StringVar(&a.run, "run", "", "run id recorded on spans")
	fs.StringVar(&a.spans, "spans", "", "where a traced repetition writes its spans")
	fs.Int64Var(&a.seed, "seed", 1, "workload seed")
	fs.Int64Var(&a.spawn, "spawn", 0, "unix ns at which the parent started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sp *spans
	if a.mode == "traced" {
		sp = &spans{run: a.run}
	}
	var res repResult
	var err error
	switch {
	case a.mode == "layers":
		res.Layer, err = layerReplay(a)
	case a.workload == "sweep-exact":
		res, err = repSweep(a, exactSpec(), sp)
	case a.workload == "sweep-analytic":
		res, err = repSweep(a, analyticSpec(analyticVariant(a.seed)), sp)
	case a.workload == "serve-mixed":
		res, err = repServe(a, sp)
	case a.workload == "fabric-sweep":
		res, err = repFabric(a, sp)
	default:
		err = fmt.Errorf("unknown workload %q", a.workload)
	}
	if err == nil && sp != nil {
		err = sp.write(a.spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child (%s %s): %v\n", a.mode, a.workload, err)
		return 1
	}
	res.RSSMB = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// recordAnalyticDigests prints every sweep-analytic variant's digest, in the
// format of testdata/analytic_digests.txt.
func recordAnalyticDigests() int {
	for v := 0; v < analyticVariants; v++ {
		spec := analyticSpec(v)
		rows, err := runLocal(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		d, err := sweepDigest(spec, rows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("%d %s\n", v, d)
	}
	return 0
}
