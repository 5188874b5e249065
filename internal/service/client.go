package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/fabric"
	"repro/internal/scalefold"
	"repro/internal/store"
)

// Client is the thin HTTP client behind `scalefold submit` and `scalefold
// jobs`: plain JSON over the /v1 API, no state beyond the base URL. Every
// method goes through fabric.Call, the call path the fabric worker uses too.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8823".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient). Streams can
	// outlive any client timeout, so a custom client should keep Timeout 0
	// and bound dials/TLS instead.
	HTTP *http.Client
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// call sends one request through the shared /v1 call path (fabric.Call),
// prefixing its errors with "service:". With out nil the 2xx response comes
// back with its body open for the caller to read and close.
func (c *Client) call(method, path string, req, out any) (*http.Response, error) {
	resp, err := fabric.Call(context.Background(), c.HTTP, method, c.url(path), req, out)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return resp, nil
}

// Submit posts a job spec and returns the accepted job's status.
func (c *Client) Submit(spec JobSpec) (st JobStatus, err error) {
	_, err = c.call(http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// SubmitSearch posts an adaptive-search spec (POST /v1/search) and returns
// the accepted job's status.
func (c *Client) SubmitSearch(spec SearchJobSpec) (st JobStatus, err error) {
	_, err = c.call(http.MethodPost, "/v1/search", spec, &st)
	return st, err
}

// Jobs lists every job on the server, in submit order.
func (c *Client) Jobs() ([]JobStatus, error) {
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	_, err := c.call(http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Job fetches one job's status.
func (c *Client) Job(id string) (st JobStatus, err error) {
	_, err = c.call(http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel cancels a queued or running job and returns its status.
func (c *Client) Cancel(id string) (st JobStatus, err error) {
	_, err = c.call(http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &st)
	return st, err
}

// StoreStatus fetches the server's store statistics.
func (c *Client) StoreStatus() (st StoreStatus, err error) {
	_, err = c.call(http.MethodGet, "/v1/store", nil, &st)
	return st, err
}

// CompactStore asks the server to compact its persistent store
// (POST /v1/store/compact) and returns the compaction statistics.
func (c *Client) CompactStore() (st store.CompactStats, err error) {
	_, err = c.call(http.MethodPost, "/v1/store/compact", nil, &st)
	return st, err
}

// Trace downloads a job's Chrome trace-event JSON (GET /v1/jobs/{id}/trace)
// and copies it to w verbatim — what `scalefold trace` writes to its output
// file.
func (c *Client) Trace(id string, w io.Writer) error {
	resp, err := c.call(http.MethodGet, "/v1/jobs/"+id+"/trace", nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// follow reads a job's NDJSON stream up to its done event, which it returns.
// Every other line goes to on with its event type; on reports whether it
// knows that type, and an error from on aborts the stream.
func (c *Client) follow(id string, on func(typ string, line []byte) (bool, error)) (DoneEvent, error) {
	resp, err := c.call(http.MethodGet, "/v1/jobs/"+id+"/stream", nil, nil)
	if err != nil {
		return DoneEvent{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return DoneEvent{}, fmt.Errorf("service: bad stream line %q: %w", line, err)
		}
		if kind.Type == "done" {
			var done DoneEvent
			if err := json.Unmarshal(line, &done); err != nil {
				return DoneEvent{}, fmt.Errorf("service: bad done event: %w", err)
			}
			return done, nil
		}
		known, err := on(kind.Type, line)
		if err != nil {
			return DoneEvent{}, err
		}
		if !known {
			return DoneEvent{}, fmt.Errorf("service: unknown stream event type %q", kind.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return DoneEvent{}, fmt.Errorf("service: %w", err)
	}
	return DoneEvent{}, fmt.Errorf("service: stream for %s ended without a done event", id)
}

// event decodes one stream line of type typ and hands it to fn; a nil fn
// skips the line undecoded.
func event[T any](typ string, line []byte, fn func(T) error) error {
	if fn == nil {
		return nil
	}
	var ev T
	if err := json.Unmarshal(line, &ev); err != nil {
		return fmt.Errorf("service: bad %s event: %w", typ, err)
	}
	return fn(ev)
}

// Stream follows a job's NDJSON stream to completion. onRow (optional)
// receives each RowEvent as it arrives; returning an error aborts the
// stream. Stream returns the terminal DoneEvent.
func (c *Client) Stream(id string, onRow func(RowEvent) error) (DoneEvent, error) {
	return c.follow(id, func(typ string, line []byte) (bool, error) {
		if typ != "row" {
			return false, nil
		}
		return true, event(typ, line, onRow)
	})
}

// SearchStream follows a search job's NDJSON stream to completion. onProbe
// (optional) receives each ProbeEvent as it arrives; returning an error
// aborts the stream. SearchStream returns the FrontierEvent's report (nil if
// the job ended without one — cancelled or failed) and the terminal
// DoneEvent.
func (c *Client) SearchStream(id string, onProbe func(ProbeEvent) error) (frontier *scalefold.Frontier, done DoneEvent, err error) {
	done, err = c.follow(id, func(typ string, line []byte) (bool, error) {
		switch typ {
		case "probe":
			return true, event(typ, line, onProbe)
		case "frontier":
			return true, event(typ, line, func(ev FrontierEvent) error {
				frontier = &ev.Frontier
				return nil
			})
		}
		return false, nil
	})
	return frontier, done, err
}

// RawStream follows a job's stream and prints one JSON object per line to w
// — what `scalefold submit -stream` shows. It returns the terminal
// DoneEvent.
func (c *Client) RawStream(id string, w io.Writer) (DoneEvent, error) {
	var done DoneEvent
	done, err := c.Stream(id, func(ev RowEvent) error {
		line, merr := json.Marshal(ev)
		if merr != nil {
			return merr
		}
		_, werr := fmt.Fprintf(w, "%s\n", line)
		return werr
	})
	if err != nil {
		return done, err
	}
	line, merr := json.Marshal(done)
	if merr == nil {
		fmt.Fprintf(w, "%s\n", line)
	}
	return done, nil
}
