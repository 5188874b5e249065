package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/fabric"
)

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/store", s.handleStore)
	mux.HandleFunc("POST /v1/store/compact", s.handleStoreCompact)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	if s.coord != nil {
		s.coord.Mount(mux) // /v1/workers fleet protocol (coordinator mode)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !fabric.DecodeJSON(w, r, &spec, "bad job spec: ") {
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeSubmitErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleSearch accepts an adaptive-search job: same queue, same status and
// stream endpoints as sweep jobs, searched instead of enumerated. An invalid
// spec — unknown objective, mode, platform, infeasible ladder — is 400.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var spec SearchJobSpec
	if !fabric.DecodeJSON(w, r, &spec, "bad search spec: ") {
		return
	}
	st, err := s.SubmitSearch(spec)
	if err != nil {
		writeSubmitErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// writeSubmitErr maps submission failures to their status codes: invalid
// specs to 400, queue backpressure to 503, anything else to 500.
func writeSubmitErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var bad *BadSpecError
	var full *QueueFullError
	switch {
	case errors.As(err, &bad):
		code = http.StatusBadRequest
	case errors.As(err, &full):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream replays the job's event log as NDJSON and follows it until
// the terminal DoneEvent, flushing after every batch so a watching client
// sees cells as they settle.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	offset := 0
	for {
		events, done, wait := j.follow(offset)
		for _, e := range events {
			if _, err := w.Write(e); err != nil {
				return
			}
		}
		offset += len(events)
		if len(events) > 0 {
			rc.Flush()
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StoreStatus())
}

// handleStoreCompact is the admin endpoint behind `scalefold store compact
// -server`: rewrite the persistent store down to its live records.
func (s *Server) handleStoreCompact(w http.ResponseWriter, r *http.Request) {
	st, ok, err := s.CompactStore()
	if !ok {
		writeJSON(w, http.StatusConflict, apiError{Error: "store is memory-only; nothing to compact"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleMetrics serves the registry in Prometheus text exposition format —
// service, store and (coordinator mode) fabric series in one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleTrace serves the job's cell-lifecycle spans as Chrome trace-event
// JSON — loadable as-is in chrome://tracing or Perfetto. Valid at any point
// in the job's life; a still-running job yields the spans settled so far.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+j.id+`-trace.json"`)
	j.trace.WriteChromeTrace(w)
}
