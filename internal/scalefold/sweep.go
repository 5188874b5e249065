package scalefold

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/perturb"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
)

// SweepSpec declares a scenario sweep over the simulator: either a
// full-factorial grid of platform × rank count × DAP width × ablation switch
// × seed replica, lowered to canonical Scenarios, or an explicit Scenario
// list (the service's scenario-JSON jobs). Both run as StepConfig cells on
// the sweep engine. The `scalefold sweep` subcommand is a flag-parsing shim
// over this type.
type SweepSpec struct {
	// Profile picks the base configuration each grid cell starts from:
	// "scalefold" (Figure 7 optimized config, default), "baseline"
	// (unoptimized OpenFold reference) or "fastfold".
	Profile string
	// Arches are platform names from the scenario registry ("H100",
	// "h100-eos", "a100-selene", ...). Grid cells derive their seeds from
	// the axis values as spelled (pre-scenario-layer compatible), so one
	// grid should spell each platform one way; explicit Scenarios are the
	// spelling-independent route.
	Arches []string
	Ranks  []int
	DAPs   []int
	// Ablations are StepConfig.Ablation values ("none" plus the Figure 3
	// barrier switches); see the Ablations variable.
	Ablations []string
	// Seeds is the number of seed replicas per scenario (axis "seed" with
	// values 1..Seeds). Each cell derives its RNG seed deterministically
	// from the replica index and the scenario fingerprint.
	Seeds int
	// Scenarios, when non-empty, replaces the grid axes above: each entry
	// is one explicit cell, validated by scenario.Validate at spec
	// validation time (an infeasible explicit scenario is an error, not a
	// skipped row — the submitter named it deliberately). Identity fields
	// (Steps included) come entirely from each scenario, so its fingerprint
	// is a function of the descriptor alone; only the execution knobs below
	// (Workers, Cache, Store, ...) still apply.
	Scenarios []scenario.Scenario
	// Steps overrides the per-simulation step count (0 = simulator default).
	Steps int
	// Workers bounds the worker pool (<= 0: GOMAXPROCS).
	Workers int
	// SimWorkers shards each simulation's internal per-rank work across
	// goroutines (<= 1: serial; see cluster.Options.SimWorkers). Execution
	// detail only — results and fingerprints are identical for every value.
	// Applied to every grid cell, and to explicit Scenarios that don't set
	// their own. Prefer Workers (cell parallelism) for many-cell sweeps;
	// SimWorkers pays off when a few huge-rank cells dominate.
	SimWorkers int
	// Perturb, when non-nil and non-trivial, injects unhealthy-cluster
	// noise (stragglers, transient stalls, failures + restarts; see
	// package perturb) into every grid cell, and into explicit Scenarios
	// that don't carry their own block. Unlike SimWorkers this IS
	// identity-bearing: perturbed cells fingerprint under the v4 key
	// generation and never share store records with healthy ones.
	Perturb *perturb.Spec
	// Mode selects how cells resolve their Result: "" or "exact" runs the
	// simulator (the default), "analytic" serves package analytic's
	// closed-form estimate, "auto" picks per cell — analytic unless the
	// estimate's error bounds straddle a decision boundary
	// (analytic.ShouldEscalate), in which case the cell escalates to
	// exact. Applied to every grid cell and to explicit Scenarios that
	// don't carry their own mode. Auto resolves at lowering time (the
	// estimator costs microseconds), so the resolved cells carry plain
	// analytic or exact fingerprints: an auto sweep shares memo entries
	// and store records with explicitly-moded sweeps, and its escalation
	// set is a deterministic function of the scenarios alone. Identity-
	// bearing for analytic cells (v5 keys — an estimate must never satisfy
	// an exact lookup); exact cells keep their v3/v4 keys byte-identical.
	Mode string
	// Cache memoizes results across Run calls that share it. nil means a
	// fresh memo for this Run: cells repeated within the sweep still
	// resolve once.
	Cache *sweep.Cache[cluster.Result]
	// Store, when non-nil, persistently backs the memo for this sweep:
	// cells are looked up in the store before simulating and written
	// through after. nil means memory only.
	Store store.Store[cluster.Result]
	// OnStoreErr, when non-nil, receives store write-through errors (the
	// sweep continues; a failing store degrades to memory-only operation).
	OnStoreErr func(error)
	// Metrics, when non-nil, counts how each executed cell was satisfied.
	Metrics *SweepMetrics
	// OnRow, when non-nil, streams rows as they settle: every skipped row
	// first (in grid order, before execution starts), then each executed
	// row as its cell completes (completion order; calls are serialized).
	// The sweep service's NDJSON endpoint hangs off this hook.
	OnRow func(i int, row SweepRow)
	// Gate, when non-nil, wraps the execution of each cold cell. The sweep
	// service uses it to bound total simulation concurrency across
	// concurrent jobs with one server-wide semaphore — and to drain
	// cancelled jobs quickly by skipping the run (the cell then reports a
	// zero Result, which is never persisted).
	Gate func(run func())
	// Runner, when non-nil, replaces local simulation for cells the store
	// cannot satisfy: the fabric coordinator dispatches each such cell to a
	// registered worker and returns its result (byte-identical to a local
	// run — results round-trip losslessly). The memo cache and the store
	// fast path still apply in front of it. A Runner error (worker fleet
	// lost the cell beyond the retry budget, or dispatch was cancelled)
	// fails the whole sweep: Run returns the first one after the engine
	// drains, with the affected rows carrying zero Results.
	Runner func(c StepConfig) (cluster.Result, error)
	// OnEstimate, when non-nil, observes the latency of every analytic
	// estimate this sweep computes (store hits excluded). The sweep service
	// feeds its estimate-latency histogram with it.
	OnEstimate func(time.Duration)
	// Trace, when non-nil, records one cat="cell" lifecycle span per settled
	// cell: locally resolved cells (store hit or simulation) land on a
	// "local-N" engine-slot lane, memo-settled cells on the "memo" lane.
	// Cells the Runner resolves are NOT spanned here — the Runner's owner
	// (the fabric layer) records them with true worker attribution, so every
	// cell appears exactly once whoever executed it.
	Trace *obs.Tracer
}

// SweepMetrics counts how the cells of a Run were satisfied. All fields are
// safe to read concurrently while the sweep runs.
type SweepMetrics struct {
	Simulated atomic.Int64 // ran the exact simulator
	StoreHits atomic.Int64 // served from the persistent store
	MemoHits  atomic.Int64 // settled by the in-memory memo (incl. singleflight waits)
	Remote    atomic.Int64 // dispatched to a fabric worker (SweepSpec.Runner)
	Analytic  atomic.Int64 // served by the closed-form estimator (package analytic)
	Escalated atomic.Int64 // auto-mode cells whose bounds forced exact simulation
}

// DefaultSweepSpec is the out-of-the-box exploration grid: the optimized
// ScaleFold profile on H100×256 across every DAP width and every barrier
// ablation — 24 cells the paper never plotted side by side.
func DefaultSweepSpec() SweepSpec {
	return SweepSpec{
		Profile:   "scalefold",
		Arches:    []string{"H100"},
		Ranks:     []int{256},
		DAPs:      []int{1, 2, 4, 8},
		Ablations: append([]string(nil), Ablations...),
		Seeds:     1,
	}
}

// Grid returns the declared axes. Expansion is exhaustive — infeasible
// cells (ranks not divisible by DAP) are skipped at lowering time with a
// note in the row set, not silently dropped from the grid.
func (s SweepSpec) Grid() sweep.Grid {
	ints := func(vs []int) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = strconv.Itoa(v)
		}
		return out
	}
	nSeeds := s.Seeds
	if nSeeds < 0 {
		nSeeds = 0 // expansion then fails with `axis "seed" has no values`
	}
	seeds := make([]string, nSeeds)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	return sweep.Grid{Axes: []sweep.Axis{
		{Name: "arch", Values: s.Arches},
		{Name: "ranks", Values: ints(s.Ranks)},
		{Name: "dap", Values: ints(s.DAPs)},
		{Name: "ablate", Values: s.Ablations},
		{Name: "seed", Values: seeds},
	}}
}

// configFor lowers one grid point to a runnable StepConfig. The reported
// error marks infeasible cells (rank/DAP mismatch).
func (s SweepSpec) configFor(p sweep.Point) (StepConfig, error) {
	platform := p.Get("arch")
	if _, err := scenario.PlatformByName(platform); err != nil {
		return StepConfig{}, err
	}
	ranks, _ := strconv.Atoi(p.Get("ranks"))
	dap, _ := strconv.Atoi(p.Get("dap"))
	seedIdx, _ := strconv.Atoi(p.Get("seed"))
	ablate := p.Get("ablate")
	if !scenario.ValidAblation(ablate) {
		return StepConfig{}, fmt.Errorf("unknown ablation %q (want one of %v)", ablate, Ablations)
	}
	if ranks < 1 || dap < 1 || ranks%dap != 0 {
		return StepConfig{}, fmt.Errorf("infeasible cell: %d ranks cannot host DAP-%d", ranks, dap)
	}
	var c StepConfig
	switch s.Profile {
	case "", "scalefold":
		c = Figure7Config(platform, ranks, dap)
	case "baseline":
		c = ReferenceConfig(platform, ranks)
		c.DAP = dap
		c.Census.DAP = dap
	case "fastfold":
		c = FastFoldConfig(platform, ranks, dap)
	default:
		return StepConfig{}, fmt.Errorf("unknown profile %q (want scalefold, baseline or fastfold)", s.Profile)
	}
	c.Name = p.Fingerprint()
	c.Ablation = ablate
	c.Steps = s.Steps
	c.SimWorkers = s.SimWorkers
	if s.Perturb != nil {
		cp := *s.Perturb
		c.Perturb = &cp
	}
	c.Seed = sweep.SeedFor(int64(seedIdx), p.Fingerprint())
	if err := c.Validate(); err != nil {
		return StepConfig{}, err
	}
	return c, nil
}

// scenarioPoint synthesizes the canonical axis coordinates of an explicit
// scenario, so explicit-scenario rows land in the same result table (and
// NDJSON row format) as grid rows.
func scenarioPoint(sc scenario.Scenario) sweep.Point {
	return sweep.Point{Coords: []sweep.Coord{
		{Axis: "arch", Value: sc.Platform},
		{Axis: "ranks", Value: strconv.Itoa(sc.Ranks)},
		{Axis: "dap", Value: strconv.Itoa(sc.DAP)},
		{Axis: "ablate", Value: sc.Ablation},
		{Axis: "seed", Value: strconv.FormatInt(sc.Seed, 10)},
	}}
}

// SweepRow is one executed (or skipped) sweep cell.
type SweepRow struct {
	Point  sweep.Point
	Config StepConfig
	Res    cluster.Result
	// SkipReason is non-empty for infeasible cells, which carry no result.
	SkipReason string
}

// validate rejects spec-wide mistakes — an unknown profile, platform or
// ablation fails every cell identically, so it is an error, not a grid of
// skips. Per-cell infeasibility (ranks not divisible by DAP) stays a skip on
// the grid path; an explicit scenario is validated in full, infeasibility
// included, because its submitter named it deliberately.
func (s SweepSpec) validate() error {
	if s.SimWorkers < 0 {
		// An execution knob, but a negative value would fail every cell
		// identically at scenario validation — reject the spec up front.
		return fmt.Errorf("sweep: sim-workers must be >= 0, got %d", s.SimWorkers)
	}
	if s.Perturb != nil {
		// A bad perturbation spec fails every cell identically too.
		if err := s.Perturb.Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if !scenario.ValidMode(s.Mode) {
		// So is an unknown mode.
		return fmt.Errorf("sweep: unknown mode %q (want one of %v)", s.Mode, scenario.Modes)
	}
	if len(s.Scenarios) > 0 {
		for i, sc := range s.Scenarios {
			if err := sc.Validate(); err != nil {
				return fmt.Errorf("sweep: scenarios[%d]: %w", i, err)
			}
		}
		return nil
	}
	switch s.Profile {
	case "", "scalefold", "baseline", "fastfold":
	default:
		return fmt.Errorf("sweep: unknown profile %q (want scalefold, baseline or fastfold)", s.Profile)
	}
	for _, a := range s.Arches {
		if _, err := scenario.PlatformByName(a); err != nil {
			return fmt.Errorf("sweep: %v", err)
		}
	}
	for _, ab := range s.Ablations {
		if ab == "" || !scenario.ValidAblation(ab) {
			return fmt.Errorf("sweep: unknown ablation %q (want one of %v)", ab, Ablations)
		}
	}
	return nil
}

// Validate rejects spec-wide mistakes without running anything: an unknown
// profile, platform or ablation, an invalid explicit scenario, or a grid
// that cannot expand. The sweep service validates jobs at submission time
// with it.
func (s SweepSpec) Validate() error {
	if err := s.validate(); err != nil {
		return err
	}
	if len(s.Scenarios) > 0 {
		return nil
	}
	return s.Grid().Validate()
}

// Cells returns how many rows the spec expands to: the explicit scenario
// count, or the full grid size.
func (s SweepSpec) Cells() int {
	if len(s.Scenarios) > 0 {
		return len(s.Scenarios)
	}
	return s.Grid().Size()
}

// Run lowers the spec to cells — one per explicit scenario, or one per grid
// point — executes the feasible ones on the engine and returns one row per
// cell, in declaration order. onProgress (optional) streams completion
// events.
func (s SweepSpec) Run(onProgress func(sweep.Progress)) ([]SweepRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var rows []SweepRow
	var cells []sweep.Cell[StepConfig]
	var cellRow []int // cells[i] fills rows[cellRow[i]]
	add := func(i int, p sweep.Point, c StepConfig) {
		c.Scenario = resolveMode(c.Scenario, s.Mode, s.Metrics)
		rows[i].Point, rows[i].Config = p, c
		cells = append(cells, sweep.Cell[StepConfig]{Key: c.Fingerprint(), Label: p.Fingerprint(), Config: c})
		cellRow = append(cellRow, i)
	}
	if len(s.Scenarios) > 0 {
		rows = make([]SweepRow, len(s.Scenarios))
		for i, sc := range s.Scenarios {
			n, err := sc.Normalize() // validated above; canonical names for display
			if err != nil {
				return nil, fmt.Errorf("sweep: scenarios[%d]: %w", i, err)
			}
			if n.SimWorkers == 0 {
				// Spec-level execution knob; a scenario's own setting wins.
				n.SimWorkers = s.SimWorkers
			}
			if n.Perturb == nil && s.Perturb != nil {
				// Spec-level perturbation; a scenario's own block wins.
				// Re-normalize so a no-op spec still collapses to nil (and
				// the cell keeps its v3 identity).
				cp := *s.Perturb
				n.Perturb = &cp
				if n, err = n.Normalize(); err != nil {
					return nil, fmt.Errorf("sweep: scenarios[%d]: %w", i, err)
				}
			}
			p := scenarioPoint(n)
			add(i, p, StepConfig{Name: p.Fingerprint(), Scenario: n})
		}
	} else {
		points, err := s.Grid().Expand()
		if err != nil {
			return nil, err
		}
		rows = make([]SweepRow, len(points))
		for i, p := range points {
			rows[i].Point = p
			c, err := s.configFor(p)
			if err != nil {
				rows[i].SkipReason = err.Error()
				continue
			}
			add(i, p, c)
		}
	}
	if s.OnRow != nil {
		for i := range rows {
			if rows[i].SkipReason != "" {
				s.OnRow(i, rows[i])
			}
		}
	}
	rv := resolver{store: s.Store, onStoreErr: s.OnStoreErr, metrics: s.Metrics, onEstimate: s.OnEstimate, runner: s.Runner}
	var errMu sync.Mutex
	var runnerErr error
	// One trace lane per engine worker slot, recycled through a free-list so
	// concurrent cells never share a lane. The lane name doubles as the owner
	// attribution for locally resolved cells.
	var lanes chan int
	if s.Trace != nil {
		nlanes := s.Workers
		if nlanes <= 0 {
			nlanes = runtime.GOMAXPROCS(0)
		}
		lanes = make(chan int, nlanes)
		for i := 0; i < nlanes; i++ {
			lanes <- i
		}
	}
	run := func(c StepConfig) (r cluster.Result) {
		body := func() {
			var lane int
			var t0 time.Time
			if lanes != nil {
				lane = <-lanes
				t0 = time.Now()
			}
			var src string
			var err error
			r, src, err = rv.resolve(c)
			if lanes != nil {
				end := time.Now()
				lanes <- lane
				if err == nil && src != "remote" {
					owner := "local-" + strconv.Itoa(lane)
					s.Trace.Span(owner, c.Name, "cell", t0, end, map[string]string{
						"owner": owner, "source": src, "key": c.Fingerprint(),
					})
				}
			}
			if err != nil {
				errMu.Lock()
				if runnerErr == nil {
					runnerErr = err
				}
				errMu.Unlock()
			}
		}
		if s.Gate != nil {
			s.Gate(body)
		} else {
			body()
		}
		return r
	}
	cache := s.Cache
	if cache == nil {
		cache = sweep.NewCache[cluster.Result]()
	}
	var onResult func(int, cluster.Result, bool)
	if s.OnRow != nil || s.Metrics != nil || s.Trace != nil {
		onResult = func(ci int, r cluster.Result, cached bool) {
			if cached {
				s.Metrics.note("memo")
				// Memo-settled cells never reached the resolver: record their
				// zero-duration span here so trace coverage stays exactly one
				// span per cell.
				now := time.Now()
				s.Trace.Span("memo", cells[ci].Label, "cell", now, now, map[string]string{
					"owner": "memo", "source": "memo", "key": cells[ci].Key,
				})
			}
			if s.OnRow != nil {
				ri := cellRow[ci]
				rows[ri].Res = r
				s.OnRow(ri, rows[ri])
			}
		}
	}
	eng := sweep.Engine[StepConfig, cluster.Result]{
		Workers:    s.Workers,
		Cache:      cache,
		OnProgress: onProgress,
		OnResult:   onResult,
	}
	results := eng.Run(cells, run)
	for i, r := range results {
		rows[cellRow[i]].Res = r
	}
	return rows, runnerErr
}

// SweepTable formats executed rows as the canonical result table: the axis
// coordinates followed by step times and the full breakdown, all in seconds
// with fixed precision, so output is byte-identical across worker counts.
// Skipped cells emit their coordinates with a "skipped" status.
func SweepTable(rows []SweepRow) sweep.Table {
	tab := sweep.Table{Header: []string{
		"arch", "ranks", "dap", "ablate", "seed", "status",
		"median_step_s", "mean_step_s", "gpu_compute_s", "cpu_exposed_s",
		"data_wait_s", "comm_xfer_s", "comm_wait_s",
	}}
	sec := func(d interface{ Seconds() float64 }) string {
		return strconv.FormatFloat(d.Seconds(), 'f', 6, 64)
	}
	for _, r := range rows {
		p := r.Point
		if r.SkipReason != "" {
			tab.Append(p.Get("arch"), p.Get("ranks"), p.Get("dap"), p.Get("ablate"), p.Get("seed"),
				"skipped", "", "", "", "", "", "", "")
			continue
		}
		tab.Append(p.Get("arch"), p.Get("ranks"), p.Get("dap"), p.Get("ablate"), p.Get("seed"),
			"ok", sec(r.Res.MedianStep), sec(r.Res.MeanStep),
			sec(r.Res.Break.GPUCompute), sec(r.Res.Break.CPUExposed),
			sec(r.Res.Break.DataWait), sec(r.Res.Break.CommXfer), sec(r.Res.Break.CommWait))
	}
	return tab
}
