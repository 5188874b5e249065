package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scalefold"
	"repro/internal/service"
	"repro/internal/store"
)

// inputs is everything a seed generates, for comparison.
type inputs struct {
	Analytic  []string // lowered sweep-analytic cell fingerprints
	Fabric    service.JobSpec
	FabricKey []string
	Serve     []serveJob
}

func generate(t *testing.T, seed int64) inputs {
	t.Helper()
	fingerprints := func(spec scalefold.SweepSpec) []string {
		cells, err := lower(spec)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(cells))
		for i, sc := range cells {
			out[i] = sc.Fingerprint()
		}
		return out
	}
	in := inputs{Fabric: fabricSpec(seed), Serve: serveSchedule(seed)}
	in.Analytic = fingerprints(analyticSpec(analyticVariant(seed)))
	in.FabricKey = fingerprints(sweepOf(in.Fabric))
	return in
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generate(t, 7), generate(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if len(a.Analytic) != 432*analyticSeedReplicas || len(a.FabricKey) != 480 || len(a.Serve) != serveJobs {
		t.Fatalf("sizes: %d analytic cells, %d fabric cells, %d serve jobs", len(a.Analytic), len(a.FabricKey), len(a.Serve))
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := generate(t, 1), generate(t, 2)
	if reflect.DeepEqual(a.Analytic, b.Analytic) {
		t.Error("seeds 1 and 2 lowered the same sweep-analytic cells")
	}
	if reflect.DeepEqual(a.FabricKey, b.FabricKey) {
		t.Error("seeds 1 and 2 lowered the same fabric-sweep cells")
	}
	if reflect.DeepEqual(a.Serve, b.Serve) {
		t.Error("seeds 1 and 2 generated the same serve-mixed schedule")
	}
}

// Every generated serve-mixed job must be accepted (no 400s). Each one is
// cancelled as soon as it is queued, so nothing runs to completion.
func TestServeJobsValidate(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		srv, err := service.New(service.Config{QueueLimit: serveJobs, MaxActiveJobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for i, j := range serveSchedule(seed) {
			var st service.JobStatus
			if j.Search != nil {
				st, err = srv.SubmitSearch(*j.Search)
			} else {
				st, err = srv.Submit(*j.Sweep)
			}
			if err != nil {
				t.Fatalf("seed %d job %d (%s): %v", seed, i, j.Class, err)
			}
			srv.Cancel(st.ID)
		}
	}
}

// Apart from the repeat class, no two serve-mixed sweep jobs share a cell,
// and no job reads a repeat-pool record except through the repeat class:
// that is what makes every job's counts independent of client order.
func TestServeCellsDisjoint(t *testing.T) {
	seed := int64(5)
	pool := map[string]bool{}
	for _, sc := range repeatScenarios(seed) {
		pool[sc.Fingerprint()] = true
	}
	seen := map[string]int{}
	healthy := map[string]int{} // a search's unperturbed probes share this identity
	for i, j := range serveSchedule(seed) {
		if j.Search != nil {
			k := fmt.Sprint(j.Search.Arch, j.Search.Steps, j.Search.Ranks)
			if prev, ok := healthy[k]; ok {
				t.Fatalf("searches %d and %d share their healthy probes (%s)", prev, i, k)
			}
			healthy[k] = i
			continue
		}
		for _, sc := range j.Sweep.Scenarios {
			if j.Sweep.Mode != "" {
				sc.Mode = j.Sweep.Mode
			}
			k := sc.Fingerprint()
			if j.Class == classRepeat {
				if !pool[k] {
					t.Fatalf("repeat job %d reads %s, which is not in the pool", i, k)
				}
				continue
			}
			if pool[k] {
				t.Fatalf("%s job %d reads pool cell %s", j.Class, i, k)
			}
			if prev, ok := seen[k]; ok {
				t.Fatalf("jobs %d and %d share cell %s", prev, i, k)
			}
			seen[k] = i
		}
	}
}

// The populated store holds every record the repeat class expects to hit.
func TestFixtureHoldsRepeatRecords(t *testing.T) {
	dir := t.TempDir()
	const seed, fillers = 3, 1000
	if err := populateServeStore(dir, seed, fillers); err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != repeatPool+fillers {
		t.Fatalf("store holds %d records, want %d", d.Len(), repeatPool+fillers)
	}
	for _, j := range serveSchedule(seed) {
		if j.Class != classRepeat {
			continue
		}
		for _, sc := range j.Sweep.Scenarios {
			if r, ok := d.Get(sc.Fingerprint()); !ok || r.Goodput <= 0 {
				t.Fatalf("repeat cell %s missing from the populated store", sc.Fingerprint())
			}
		}
	}
}

// The metrics the benchmark prints are exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchDeclaration(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd([]repResult{{PassS: 1, Ops: []opResult{{Cells: 1}}}}, []float64{1})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("benchmark reports %d end-to-end metrics, BENCHMARK.json declares %d", len(e2e), len(spec.EndToEnd))
	}
	for _, d := range spec.EndToEnd {
		if m, ok := e2e[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s (%s) reported as %+v", d.Name, d.Unit, m)
		}
	}
	if len(perLayer) != len(spec.PerLayer) {
		t.Fatalf("benchmark reports %d per-layer metrics, BENCHMARK.json declares %d", len(perLayer), len(spec.PerLayer))
	}
	for i, d := range spec.PerLayer {
		if perLayer[i].name != d.Name || perLayer[i].unit != d.Unit {
			t.Errorf("per-layer metric %d: reported %s (%s), declared %s (%s)", i, perLayer[i].name, perLayer[i].unit, d.Name, d.Unit)
		}
	}
}
