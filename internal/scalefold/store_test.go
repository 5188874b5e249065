package scalefold

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
)

// tinySpec is a 4-cell sweep (DAP {1,2} × ablation {none, zero-launch}) at
// small rank counts: fast enough to run cold several times per test, real
// enough to exercise the simulator end to end.
func tinySpec(cache *sweep.Cache[cluster.Result]) SweepSpec {
	s := testSpec(2, cache)
	s.DAPs = []int{1, 2}
	s.Ablations = []string{"none", "zero-launch"}
	return s
}

func TestStoreBackedMemoEmitsIdenticalBytes(t *testing.T) {
	cold := sweepCSV(t, tinySpec(nil))

	// Same sweep against a persistent store, fresh in-memory cache each run
	// (as after a restart): first run simulates and fills the store, second
	// run serves every cell from the store — both must emit the bytes of
	// the cold run, for CSV and JSON alike.
	st := store.NewMem[cluster.Result]()
	first := tinySpec(nil)
	first.Store = st
	first.Metrics = &SweepMetrics{}
	firstCSV := sweepCSV(t, first)
	if n := first.Metrics.StoreHits.Load(); n != 0 {
		t.Fatalf("first run hit the empty store %d times", n)
	}
	if n := first.Metrics.Simulated.Load(); n != 4 {
		t.Fatalf("first run simulated %d cells, want 4", n)
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d results, want 4", st.Len())
	}

	second := tinySpec(nil)
	second.Store = st
	second.Metrics = &SweepMetrics{}
	secondCSV := sweepCSV(t, second)
	if n := second.Metrics.Simulated.Load(); n != 0 {
		t.Fatalf("store-warm run re-simulated %d cells, want 0", n)
	}
	if n := second.Metrics.StoreHits.Load(); n != 4 {
		t.Fatalf("store-warm run had %d store hits, want 4", n)
	}
	if !bytes.Equal(cold, firstCSV) || !bytes.Equal(cold, secondCSV) {
		t.Fatalf("store-backed memo must emit byte-identical CSV:\ncold:\n%s\nfirst:\n%s\nsecond:\n%s", cold, firstCSV, secondCSV)
	}

	jsonOf := func(s SweepSpec) []byte {
		rows, err := s.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SweepTable(rows).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	coldJSON := jsonOf(tinySpec(nil))
	warm := tinySpec(nil)
	warm.Store = st
	if !bytes.Equal(coldJSON, jsonOf(warm)) {
		t.Fatal("store-backed memo must emit byte-identical JSON")
	}
}

func TestStoreSurvivesDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d1, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	first := tinySpec(nil)
	first.Store = d1
	firstCSV := sweepCSV(t, first)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reload the store from disk; the sweep must be served fully
	// from it — cluster.Result must round-trip through the JSON log
	// byte-exactly, down to every emitted duration digit.
	d2, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	second := tinySpec(nil)
	second.Store = d2
	second.Metrics = &SweepMetrics{}
	secondCSV := sweepCSV(t, second)
	if n := second.Metrics.Simulated.Load(); n != 0 {
		t.Fatalf("reloaded store must serve every cell, simulated %d", n)
	}
	if !bytes.Equal(firstCSV, secondCSV) {
		t.Fatalf("disk round trip changed emitted bytes:\n%s\nvs\n%s", firstCSV, secondCSV)
	}
}

func TestAttachStoreWritesThrough(t *testing.T) {
	// Figure-runner results computed after attachment go through
	// write-through, and a fresh memo (as after a restart) is served from
	// the store.
	ResetStepCache()
	st := store.NewMem[cluster.Result]()
	AttachStore(st, nil)
	defer func() {
		AttachStore(nil, nil)
		ResetStepCache()
	}()

	points, err := tinySpec(nil).Grid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := tinySpec(nil).configFor(points[0])
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Run()
	if got, ok := st.Get(cfg.Fingerprint()); !ok || got != want {
		t.Fatal("post-attach Run must write through to the store")
	}

	ResetStepCache()
	before := Simulations()
	if got := cfg.Run(); got != want {
		t.Fatal("store-served Run changed the result")
	}
	if Simulations() != before {
		t.Fatal("Run after memo reset must be served from the store, not re-simulated")
	}
}

// TestSweepMetricsCountMemoHits pins every resolution route: the source it
// reports, the one SweepMetrics counter it moves, whether the simulator ran,
// and what it leaves in the store.
func TestSweepMetricsCountMemoHits(t *testing.T) {
	t.Run("memo", func(t *testing.T) {
		cache := sweep.NewCache[cluster.Result]()
		s := tinySpec(cache)
		s.Metrics = &SweepMetrics{}
		if _, err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		s2 := tinySpec(cache)
		s2.Metrics = &SweepMetrics{}
		s2.Trace = obs.NewTracer()
		if _, err := s2.Run(nil); err != nil {
			t.Fatal(err)
		}
		if n := s2.Metrics.MemoHits.Load(); n != 4 {
			t.Fatalf("cache-warm run had %d memo hits, want 4", n)
		}
		if n := s2.Metrics.Simulated.Load(); n != 0 {
			t.Fatalf("cache-warm run simulated %d cells, want 0", n)
		}
		for _, ev := range s2.Trace.Events() {
			if ev.Cat == "cell" && ev.Args["source"] != "memo" {
				t.Fatalf("cache-warm cell span has source %q, want memo", ev.Args["source"])
			}
		}
	})

	exact := Figure7Config("H100", 32, 1)
	exact.Steps = 2
	ana := exact
	ana.Mode = scenario.ModeAnalytic
	simulated, _, _ := resolver{}.resolve(exact)
	estimated, _, err := analytic.Estimate(ana.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	legacy := simulated
	legacy.Goodput = 0 // a record written before Result carried goodput
	remote := cluster.Result{MeanStep: 7, Goodput: 1}
	cases := []struct {
		name    string
		cfg     StepConfig
		stored  *cluster.Result // the store's record before resolving
		runner  bool            // dispatch exact cells to a stub Runner
		src     string
		counter string // the one SweepMetrics counter that moves
		sims    int64  // simulator runs
		res     cluster.Result
		persist bool // the result is written through
	}{
		{"store-hit", exact, &simulated, false, "store-hit", "StoreHits", 0, simulated, true},
		{"analytic", ana, nil, false, "analytic", "Analytic", 0, estimated, true},
		{"simulated", exact, nil, false, "simulated", "Simulated", 1, simulated, true},
		{"legacy record re-resolved", exact, &legacy, false, "simulated", "Simulated", 1, simulated, true},
		{"remote", exact, nil, true, "remote", "Remote", 0, remote, false},
		{"store-hit before remote", exact, &simulated, true, "store-hit", "StoreHits", 0, simulated, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := store.NewMem[cluster.Result]()
			key := tc.cfg.Fingerprint()
			if tc.stored != nil {
				if err := st.Put(key, *tc.stored); err != nil {
					t.Fatal(err)
				}
			}
			var m SweepMetrics
			rv := resolver{store: st, metrics: &m}
			if tc.runner {
				rv.runner = func(StepConfig) (cluster.Result, error) { return remote, nil }
			}
			sims0 := Simulations()
			res, src, err := rv.resolve(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if src != tc.src || res != tc.res {
				t.Fatalf("resolve = %+v, %q; want %+v, %q", res, src, tc.res, tc.src)
			}
			if got := Simulations() - sims0; got != tc.sims {
				t.Fatalf("simulator ran %d times, want %d", got, tc.sims)
			}
			counters := map[string]int64{
				"MemoHits": m.MemoHits.Load(), "StoreHits": m.StoreHits.Load(),
				"Analytic": m.Analytic.Load(), "Simulated": m.Simulated.Load(),
				"Remote": m.Remote.Load(), "Escalated": m.Escalated.Load(),
			}
			for name, n := range counters {
				want := int64(0)
				if name == tc.counter {
					want = 1
				}
				if n != want {
					t.Fatalf("counters %v: want only %s = 1", counters, tc.counter)
				}
			}
			stored, ok := st.Get(key)
			if tc.persist && (!ok || stored != tc.res) {
				t.Fatalf("store holds %+v, %v; want the result written through", stored, ok)
			}
			if !tc.persist && ok {
				t.Fatalf("remote result %+v was written through; its owner persists it", stored)
			}
		})
	}
}

func TestSweepOnRowStreamsEveryRow(t *testing.T) {
	s := testSpec(2, nil)
	s.Ranks = []int{30} // DAP 4 and 8 infeasible -> skipped rows stream too
	s.Ablations = []string{"none"}
	seen := map[int]SweepRow{}
	var order []int
	s.OnRow = func(i int, row SweepRow) {
		if _, dup := seen[i]; dup {
			t.Errorf("row %d streamed twice", i)
		}
		seen[i] = row
		order = append(order, i)
	}
	rows, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(rows) {
		t.Fatalf("streamed %d rows, want %d", len(seen), len(rows))
	}
	skips := 0
	for i, row := range rows {
		got := seen[i]
		if got.SkipReason != row.SkipReason || got.Res != row.Res {
			t.Fatalf("streamed row %d differs from returned row", i)
		}
		if row.SkipReason != "" {
			skips++
		}
	}
	// Skipped rows stream first, before any executed cell.
	for k := 0; k < skips; k++ {
		if seen[order[k]].SkipReason == "" {
			t.Fatalf("row order %v: first %d events must be the skips", order, skips)
		}
	}
}

func TestSweepGateWrapsColdCellsOnly(t *testing.T) {
	cache := sweep.NewCache[cluster.Result]()
	warm := tinySpec(cache)
	if _, err := warm.Run(nil); err != nil {
		t.Fatal(err)
	}
	s := tinySpec(cache)
	// Cells run concurrently, so the gate counts atomically.
	var gated atomic.Int64
	s.Gate = func(run func()) { gated.Add(1); run() }
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	if n := gated.Load(); n != 0 {
		t.Fatalf("gate ran %d times on a memo-warm sweep, want 0", n)
	}
	cold := tinySpec(nil)
	gated.Store(0)
	cold.Gate = func(run func()) { gated.Add(1); run() }
	if _, err := cold.Run(nil); err != nil {
		t.Fatal(err)
	}
	if n := gated.Load(); n != 4 {
		t.Fatalf("gate ran %d times on a cold sweep, want 4", n)
	}
}

func TestLegacyKeysAreVersionedOutNotSilentlyMatched(t *testing.T) {
	// A store written by a pre-scenario build holds `%+v`-dump keys. The
	// documented behavior after the encoding bump: those records stay in the
	// log (append-only, surfaced as legacy in store stats) but are never
	// matched — every cell re-simulates under its v3 key rather than
	// guessing which old dump it corresponds to.
	dir := t.TempDir()
	d1, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	legacyKey := "census{{false false false false false false true 3 1 false}}|ranks=32|dap=1|arch={A100 7.5e+13 ...}|seed=1"
	poison := cluster.Result{MeanStep: 12345} // would corrupt output if served
	if err := d1.Put(legacyKey, poison); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	spec := tinySpec(nil)
	spec.Store = d2
	spec.Metrics = &SweepMetrics{}
	got := sweepCSV(t, spec)
	if n := spec.Metrics.StoreHits.Load(); n != 0 {
		t.Fatalf("legacy keys must never satisfy a lookup, got %d store hits", n)
	}
	if n := spec.Metrics.Simulated.Load(); n != 4 {
		t.Fatalf("every cell must re-simulate past a legacy-only store, simulated %d", n)
	}
	if !bytes.Equal(got, sweepCSV(t, tinySpec(nil))) {
		t.Fatal("legacy store changed emitted bytes")
	}

	// The legacy record survives (append-only log, counted by version
	// predicate) and every new record carries the current version prefix.
	legacy, current := 0, 0
	for _, k := range d2.Keys() {
		if scenario.IsCurrentKey(k) {
			current++
		} else {
			legacy++
		}
	}
	if legacy != 1 || current != 4 {
		t.Fatalf("store must hold 1 legacy + 4 current keys, got %d + %d", legacy, current)
	}
}
