package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/service"
)

// optimizeCmd is the adaptive-search front end: instead of enumerating a
// grid (`sweep`, `resilience`), it bisects the failure axis around the
// goodput cliff, detects the ranks-scaling knee and refines the Pareto
// frontier within a probe budget, printing the Frontier report as JSON.
// With -server it submits the search to a running `scalefold serve` as a
// POST /v1/search job and follows its stream; otherwise it runs in-process
// (optionally against a -store directory, sharing records with every sweep
// pointed there).
func optimizeCmd(args []string) {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	d := scalefold.DefaultSearchSpec()
	objective := fs.String("objective", d.Objective,
		`search objective: "maximize-goodput" or "minimize-cost-steptime"`)
	arch := fs.String("arch", d.Platform,
		"platform profile ("+strings.Join(scenario.PlatformNames(), ", ")+")")
	ranks := fs.String("ranks", joinInts(d.Ranks), "comma-separated ascending GPU-count ladder")
	daps := fs.String("dap", joinInts(d.DAPs), "comma-separated DAP widths considered per rung")
	failLo := fs.Float64("fail-lo", d.FailLo, "failure-rate axis lower bound (per-rank per-step)")
	failHi := fs.Float64("fail-hi", d.FailHi, "failure-rate axis upper bound")
	restartCost := fs.Float64("restart-cost", d.RestartCost,
		"checkpoint-restart cost in seconds per failure")
	cliffGoodput := fs.Float64("cliff-goodput", d.CliffGoodput,
		"goodput threshold whose crossing defines the cliff")
	tolerance := fs.Float64("tolerance", d.Tolerance, "bisection stop width in decades")
	budget := fs.Int("budget", d.Budget, "unique-probe budget (memoized re-probes are free)")
	steps := fs.Int("steps", d.Steps, "simulated steps per probe (0 = simulator default)")
	modeFlag := fs.String("mode", d.Mode, `probe resolution mode: auto (default; analytic
exploration, exact escalation at decision boundaries), exact or analytic`)
	simWorkers := fs.Int("sim-workers", 0, "goroutines sharding each probe's per-rank work")
	storeDir := fs.String("store", "", `persistent result-store directory ("" = off)`)
	server := fs.String("server", "", `running sweep server base URL: submit the search as a
POST /v1/search job instead of running in-process`)
	quiet := fs.Bool("quiet", false, "suppress streaming probe progress on stderr")
	fs.Parse(args)

	// One spec: `-server` sends it as is, a local run lowers it the way the
	// server does.
	js := service.SearchJobSpec{
		Objective:    *objective,
		Arch:         *arch,
		Ranks:        parseIntList("optimize", "ranks", *ranks),
		DAPs:         parseIntList("optimize", "dap", *daps),
		FailLo:       *failLo,
		FailHi:       *failHi,
		RestartCost:  *restartCost,
		CliffGoodput: *cliffGoodput,
		Tolerance:    *tolerance,
		Budget:       *budget,
		Steps:        *steps,
		Mode:         parseMode("optimize", *modeFlag),
		SimWorkers:   *simWorkers,
	}
	if *server != "" {
		remoteOptimize(*server, js, *quiet)
		return
	}

	spec := js.SearchSpec()
	if ds := openStore("optimize", *storeDir); ds != nil {
		defer ds.Close()
		spec.Store = ds
	}
	var met scalefold.SweepMetrics
	spec.Metrics = &met
	if !*quiet {
		spec.OnProbe = func(p search.Probe, src string, dur time.Duration) {
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-6s ranks=%d dap=%d fail=%g -> goodput %.3f (%s, %v)\n",
				p.Seq, spec.Budget, p.Phase, p.Ranks, p.DAP, p.FailProb,
				p.Goodput, src, dur.Round(time.Millisecond))
		}
	}
	t0 := time.Now()
	f, err := spec.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "optimize: %v\n", err)
		os.Exit(2)
	}
	if !*quiet {
		runSummary("optimize", f.Used, &met, time.Since(t0))
	}
	printJSON(f)
}

// remoteOptimize submits the search to a running server and follows its
// NDJSON stream, printing the frontier when the job finishes.
func remoteOptimize(server string, spec service.SearchJobSpec, quiet bool) {
	client := &service.Client{Base: server}
	st, err := client.SubmitSearch(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optimize: %v\n", err)
		os.Exit(2)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "optimize: %s queued (budget %d), streaming\n", st.ID, st.Cells)
	}
	var onProbe func(service.ProbeEvent) error
	if !quiet {
		onProbe = func(ev service.ProbeEvent) error {
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-6s ranks=%d dap=%d fail=%g -> goodput %.3f (%s)\n",
				ev.Seq, st.Cells, ev.Phase, ev.Ranks, ev.DAP, ev.FailProb, ev.Goodput, ev.Source)
			return nil
		}
	}
	frontier, done, err := client.SearchStream(st.ID, onProbe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optimize: %v\n", err)
		os.Exit(2)
	}
	if done.State != service.StateDone || frontier == nil {
		fmt.Fprintf(os.Stderr, "optimize: job %s ended %s %s\n", st.ID, done.State, done.Error)
		os.Exit(1)
	}
	printJSON(frontier)
}
