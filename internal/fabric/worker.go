package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/scalefold"
	"repro/internal/store"
)

// Worker is the fleet side of the fabric: it registers with a coordinator,
// claims cell batches, executes them through the sweep engine's store-backed
// resolution path (shared-store hit, else simulate and write through), and
// reports each outcome. `scalefold worker` runs one; the fakeworker harness
// runs fleets of them in-process. Run is the only entry point; the exported
// fields configure it and must not change after Run starts.
type Worker struct {
	// Base is the coordinator root, e.g. "http://127.0.0.1:8823".
	Base string
	// Name labels the worker in fleet listings (hostname-pid style).
	Name string
	// Store, when non-nil, is the shared content-addressed result store: a
	// cell another worker already finished resolves as a hit with zero
	// simulation, and finished cells are written through for the rest of
	// the fleet. Point co-located workers at one shared directory via
	// store.OpenShared, or share a single Store value in-process.
	Store store.Store[cluster.Result]
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Poll is the idle claim interval, and the retry backoff for transport
	// failures. <= 0 means 200ms.
	Poll time.Duration
	// OnStoreErr, when non-nil, receives shared-store write failures (the
	// worker still completes the cell from memory).
	OnStoreErr func(error)
	// Metrics, when non-nil, counts how claimed cells were satisfied
	// (Simulated vs StoreHits), exactly like a local sweep's metrics.
	Metrics *scalefold.SweepMetrics
	// BeforeCell, when non-nil, runs before each claimed cell executes —
	// the chaos hook the fakeworker harness uses to kill or stall a worker
	// between claim and complete. Production workers leave it nil.
	BeforeCell func(key string)
	// Log, when non-nil, receives structured diagnostics: claim/complete
	// failures with worker id and attempt count, re-registrations, rejected
	// results. Nil discards them (the loop's behavior is unchanged either
	// way — errors back off by Poll and retry).
	Log *slog.Logger

	mu sync.Mutex
	id string

	hbPaused  atomic.Bool
	completed atomic.Int64
	rejected  atomic.Int64
}

// ID returns the worker's current coordinator-assigned identity ("" before
// the first successful registration; it changes if the worker re-registers
// after being expired).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Completed returns how many cells this worker has successfully reported.
func (w *Worker) Completed() int64 { return w.completed.Load() }

// Rejected returns how many of this worker's complete calls the coordinator
// refused — late results for cells reassigned after the worker was declared
// lost.
func (w *Worker) Rejected() int64 { return w.rejected.Load() }

// SetHeartbeatsPaused stops (true) or resumes (false) the heartbeat loop's
// sends without stopping the worker — the fakeworker harness's "stalled
// worker" control. A worker paused past the coordinator's timeout is
// declared lost and must re-register (the claim loop does so automatically).
func (w *Worker) SetHeartbeatsPaused(paused bool) { w.hbPaused.Store(paused) }

// rpc is the worker-side call: POST req to the coordinator under ctx and
// decode the reply into out. A 410 maps back to ErrUnknownWorker so the
// worker loop can re-register instead of treating it as a transport failure.
func (w *Worker) rpc(ctx context.Context, path string, req, out any) error {
	_, err := Call(ctx, w.HTTP, http.MethodPost, strings.TrimRight(w.Base, "/")+path, req, out)
	var se *StatusError
	switch {
	case errors.As(err, &se) && se.Code == http.StatusGone:
		return ErrUnknownWorker
	case err != nil:
		return fmt.Errorf("fabric: %w", err)
	}
	return nil
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 200 * time.Millisecond
}

func (w *Worker) logger() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.New(slog.DiscardHandler)
}

// sleep waits d or until ctx is done, reporting whether the worker should
// keep running.
func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// register obtains a (new) worker identity, retrying transport failures
// until ctx is cancelled.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	for {
		var resp RegisterResponse
		err := w.rpc(ctx, "/v1/workers/register", RegisterRequest{Name: w.Name}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			return resp, nil
		}
		if errors.Is(err, ErrClosed) || !sleep(ctx, w.poll()) {
			return RegisterResponse{}, ctx.Err()
		}
	}
}

// Run is the worker loop: register, heartbeat, claim, execute, complete —
// until ctx is cancelled. A coordinator that forgets the worker (missed
// heartbeats, restart) triggers transparent re-registration; transport
// failures back off by Poll and retry. Run returns nil on cancellation.
func (w *Worker) Run(ctx context.Context) error {
	reg, err := w.register(ctx)
	if err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, time.Duration(reg.HeartbeatMillis)*time.Millisecond)

	claimFails := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		var resp ClaimResponse
		err := w.rpc(ctx, "/v1/workers/claim", ClaimRequest{WorkerID: w.ID(), Max: reg.BatchSize}, &resp)
		switch {
		case errors.Is(err, ErrUnknownWorker):
			w.logger().Info("fabric worker re-registering: coordinator forgot us",
				"worker", w.ID(), "name", w.Name)
			if reg, err = w.register(ctx); err != nil {
				return nil
			}
			continue
		case err != nil:
			claimFails++
			w.logger().Warn("fabric claim failed, backing off",
				"worker", w.ID(), "attempt", claimFails, "backoff", w.poll(), "err", err)
			if !sleep(ctx, w.poll()) {
				return nil
			}
			continue
		}
		claimFails = 0
		if len(resp.Cells) == 0 {
			if !sleep(ctx, w.poll()) {
				return nil
			}
			continue
		}
		for _, cell := range resp.Cells {
			if w.BeforeCell != nil {
				w.BeforeCell(cell.Key)
			}
			if ctx.Err() != nil {
				// Killed mid-batch: abandon without simulating — the
				// coordinator's loss detection requeues the cells.
				return nil
			}
			w.executeCell(ctx, cell)
		}
	}
}

// executeCell runs one claimed cell and reports its outcome, including the
// measured execution time and how the cell was satisfied (shared-store hit
// vs simulation) so the coordinator's job trace carries true fleet timings.
func (w *Worker) executeCell(ctx context.Context, cell Cell) {
	cfg := scalefold.StepConfig{Name: cell.Name, Scenario: cell.Scenario}
	req := CompleteRequest{WorkerID: w.ID(), Key: cell.Key}
	if got := cfg.Fingerprint(); got != cell.Key {
		// A result stored under the wrong key would poison the shared
		// store; refuse and let the coordinator retry elsewhere.
		req.Err = "fingerprint mismatch: claimed " + cell.Key + ", scenario encodes " + got
	} else {
		t0 := time.Now()
		req.Result, req.Source = cfg.RunVia(w.Store, w.OnStoreErr, w.Metrics)
		req.ElapsedMillis = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	var resp CompleteResponse
	if err := w.rpc(ctx, "/v1/workers/complete", req, &resp); err != nil {
		// Coordinator gone or transport down; loss detection requeues.
		w.logger().Warn("fabric complete failed, abandoning cell to loss detection",
			"worker", w.ID(), "cell", cell.Key, "err", err)
		return
	}
	switch {
	case !resp.Accepted:
		w.rejected.Add(1)
		w.logger().Info("fabric complete rejected",
			"worker", w.ID(), "cell", cell.Key, "reason", resp.Reason)
	case req.Err == "":
		w.completed.Add(1)
	}
}

// heartbeatLoop beats at the coordinator-advertised interval until ctx is
// done, skipping sends while paused. An ok=false answer (coordinator forgot
// us) is left for the claim loop, which re-registers on its next call.
func (w *Worker) heartbeatLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if w.hbPaused.Load() {
				continue
			}
			var resp HeartbeatResponse
			w.rpc(ctx, "/v1/workers/heartbeat", HeartbeatRequest{WorkerID: w.ID()}, &resp)
		}
	}
}
