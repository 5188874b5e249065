package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Mount registers the fabric endpoints on mux. The sweep service mounts them
// next to its /v1/jobs API when running in coordinator mode:
//
//	POST /v1/workers/register   admit a worker; returns ID + protocol params
//	POST /v1/workers/claim      claim a cell batch (empty = poll again)
//	POST /v1/workers/heartbeat  record liveness; ok=false → re-register
//	POST /v1/workers/complete   report one cell's outcome
//	GET  /v1/workers            fleet + queue status
func (c *Coordinator) Mount(mux *http.ServeMux) {
	// timed wraps a handler with a per-RPC latency histogram. With no
	// Registry configured hist is nil and the handler is returned untouched —
	// no clock reads on uninstrumented coordinators. Minting at mount time
	// also guarantees the series exist (at zero) before any worker calls in.
	timed := func(rpcName string, h http.HandlerFunc) http.HandlerFunc {
		hist := c.met.reg.Histogram("scalefold_fabric_rpc_seconds",
			"Coordinator RPC handling latency in seconds.", nil,
			obs.Label{Key: "rpc", Value: rpcName})
		if hist == nil {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h(w, r)
			hist.ObserveSince(t0)
		}
	}
	mux.HandleFunc("POST /v1/workers/register", timed("register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !DecodeJSON(w, r, &req, "bad request: ") {
			return
		}
		resp, err := c.RegisterWorker(req.Name)
		if err != nil {
			writeFabricErr(w, err)
			return
		}
		writeFabricJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("POST /v1/workers/claim", timed("claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !DecodeJSON(w, r, &req, "bad request: ") {
			return
		}
		cells, err := c.Claim(req.WorkerID, req.Max)
		if err != nil {
			writeFabricErr(w, err)
			return
		}
		writeFabricJSON(w, http.StatusOK, ClaimResponse{Cells: cells})
	}))
	mux.HandleFunc("POST /v1/workers/heartbeat", timed("heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !DecodeJSON(w, r, &req, "bad request: ") {
			return
		}
		switch err := c.Heartbeat(req.WorkerID); {
		case err == nil:
			writeFabricJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
		case errors.Is(err, ErrUnknownWorker):
			// 200 with ok=false: the protocol-level "re-register" signal,
			// distinct from transport failures the worker should retry.
			writeFabricJSON(w, http.StatusOK, HeartbeatResponse{OK: false})
		default:
			writeFabricErr(w, err)
		}
	}))
	mux.HandleFunc("POST /v1/workers/complete", timed("complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !DecodeJSON(w, r, &req, "bad request: ") {
			return
		}
		writeFabricJSON(w, http.StatusOK, c.CompleteCell(req))
	}))
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeFabricJSON(w, http.StatusOK, c.Fleet())
	})
}

// MaxBodyBytes bounds every POST body the server decodes — job and search
// submissions and the fleet protocol's requests alike. Real bodies are a few
// kilobytes (a complete request carries one cluster.Result); the bound only
// stops a client from making the server buffer unbounded input.
const MaxBodyBytes = 4 << 20

// DecodeJSON is the decoder behind every POST route the server mounts: it
// strictly decodes a body of at most MaxBodyBytes, holding exactly one JSON
// value, into v, answering a JSON 413 for an oversized body and a JSON 400
// (its message prefixed by what) for any other decode failure, trailing data
// included. It reports whether v was decoded.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	if err == nil {
		// One value per body: anything after it but whitespace is refused.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, &tooBig) {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	switch {
	case errors.As(err, &tooBig):
		writeFabricJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": err.Error()})
	default:
		writeFabricJSON(w, http.StatusBadRequest, map[string]string{"error": what + err.Error()})
	}
	return false
}

func writeFabricErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownWorker):
		code = http.StatusGone // worker must re-register
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeFabricJSON(w, code, map[string]string{"error": err.Error()})
}

func writeFabricJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// StatusError is a non-2xx reply from a /v1 endpoint, as Call reports it:
// the HTTP status plus the server's error-envelope message, or the raw body
// when it carries no envelope, or the failure that cut the body short.
type StatusError struct {
	Code    int
	Message string // the envelope's "error" field; "" when absent
	Body    string // the trimmed body, when it carries no envelope
	ReadErr error  // non-nil when the body could not be read whole
}

func (e *StatusError) Error() string {
	switch {
	case e.ReadErr != nil:
		// A truncated error body must not masquerade as an empty one.
		return fmt.Sprintf("HTTP %d: body unreadable: %v", e.Code, e.ReadErr)
	case e.Message != "":
		return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Code)
	}
	return fmt.Sprintf("HTTP %d: %s", e.Code, e.Body)
}

// Call is the client side of every /v1 request — service.Client's methods
// and the fabric worker's RPCs alike. It sends method to url through hc (nil
// = http.DefaultClient) under ctx, with req, when non-nil, as the JSON body.
// A non-2xx reply becomes a *StatusError. On a 2xx reply Call decodes the
// body into out and closes it, or, with out nil, returns the response with
// its body open for the caller to read and close.
func Call(ctx context.Context, hc *http.Client, method, url string, req, out any) (*http.Response, error) {
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 && out == nil {
		return resp, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		se := &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(data)), ReadErr: err}
		var envelope struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &envelope) == nil {
			se.Message = envelope.Error
		}
		return nil, se
	}
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return resp, nil
}
