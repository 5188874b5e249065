package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestBadModeIs400TypedError pins the HTTP surface of mode validation: an
// unknown mode spelling — on the grid spec or inside an explicit scenario —
// is refused at submission with a 400 and a typed apiError body that lists
// the valid set, mirroring the CLI's exit-2 behavior.
func TestBadModeIs400TypedError(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()

	badScenario := tinyScenario("none")
	badScenario.Mode = "psychic"
	for name, spec := range map[string]JobSpec{
		"grid spec mode":    {Mode: "psychic"},
		"scenario-own mode": {Scenarios: []scenario.Scenario{badScenario}},
		"spec mode applied": {Mode: "psychic", Scenarios: []scenario.Scenario{tinyScenario("none")}},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(c.url("/v1/jobs"), "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status %d, want 400: %s", name, resp.StatusCode, raw)
		}
		var ae apiError
		if err := json.Unmarshal(raw, &ae); err != nil || ae.Error == "" {
			t.Fatalf("%s: body is not a typed apiError: %s", name, raw)
		}
		if !strings.Contains(ae.Error, "psychic") {
			t.Errorf("%s: error %q does not name the offending mode", name, ae.Error)
		}
		for _, want := range scenario.Modes {
			if !strings.Contains(ae.Error, want) {
				t.Errorf("%s: error %q does not list valid mode %q", name, ae.Error, want)
			}
		}
	}
}

// TestAnalyticJobEndToEnd runs an analytic-mode job over HTTP and follows the
// estimate everywhere it must surface: the done event and job status carry
// the analytic cell count (and zero simulator runs), the server store holds
// only v5-generation keys, and /v1/metrics exposes the service-level mode
// counters plus the estimate-latency histogram.
func TestAnalyticJobEndToEnd(t *testing.T) {
	srv, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()

	spec := tinyJob()
	spec.Mode = scenario.ModeAnalytic
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Mode != scenario.ModeAnalytic {
		t.Fatalf("accepted spec lost its mode: %+v", st.Spec)
	}
	_, done := collectRows(t, c, st.ID)
	if done.State != StateDone || done.Rows != 4 {
		t.Fatalf("done event: %+v", done)
	}
	if done.Analytic != 4 || done.Simulated != 0 || done.Escalations != 0 {
		t.Fatalf("analytic job must estimate every cell: %+v", done)
	}
	status, err := c.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.Analytic != 4 || status.Simulated != 0 {
		t.Fatalf("job status mode counters: %+v", status)
	}
	for _, k := range srv.Store().Keys() {
		if !strings.HasPrefix(k, "v5:") {
			t.Errorf("analytic cell stored under non-v5 key %s", k)
		}
	}

	resp, err := http.Get(c.url("/v1/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE scalefold_service_analytic_cells_total counter",
		"scalefold_service_analytic_cells_total 4",
		"scalefold_service_exact_cells_total 0",
		"scalefold_service_escalations_total 0",
		"# TYPE scalefold_analytic_estimate_seconds histogram",
		"scalefold_analytic_estimate_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}
