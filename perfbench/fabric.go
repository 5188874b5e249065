package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/service"
	"repro/internal/store"
)

// workerProbe is a fabric worker's timing hooks: its HTTP transport times
// every RPC, and the time from BeforeCell to the start of the cell's
// complete request is the worker's time on that cell.
type workerProbe struct {
	timedTransport
	before atomic.Int64 // unix ns of the last BeforeCell
}

func (p *workerProbe) beforeCell(string) { p.before.Store(time.Now().UnixNano()) }

func (p *workerProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/workers/complete" {
		p.sp.add(p.parent, "fabric.worker_cell", time.Unix(0, p.before.Load()), time.Now())
	}
	return p.timedTransport.RoundTrip(req)
}

// repFabric is one repetition of fabric-sweep: a coordinator-mode server
// and in-process workers sharing one store directory, running one job.
func repFabric(a childArgs, sp *spans) (repResult, error) {
	dir := filepath.Join(a.dir, "shared")
	s, err := startServer(service.Config{StoreDir: dir, Fabric: &fabric.Config{}})
	if err != nil {
		return repResult{}, err
	}
	nworkers := min(2, runtime.NumCPU())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var stores []*store.Shared[cluster.Result]
	stopWorkers := func() { cancel(); wg.Wait() }
	defer func() {
		stopWorkers()
		for _, st := range stores {
			st.Close()
		}
		s.stop()
	}()
	passID := sp.reserve()
	for i := 0; i < nworkers; i++ {
		owner := fmt.Sprintf("worker%d", i)
		st, err := store.OpenShared[cluster.Result](dir, owner)
		if err != nil {
			return repResult{}, err
		}
		stores = append(stores, st)
		w := &fabric.Worker{Base: s.base, Name: owner, Store: st, Poll: 20 * time.Millisecond}
		if sp != nil {
			p := &workerProbe{timedTransport: timedTransport{http.DefaultTransport, sp, passID}}
			w.HTTP = &http.Client{Transport: p}
			w.BeforeCell = p.beforeCell
			w.Store = timedStore{st, sp, passID}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	coord := s.srv.Coordinator()
	for deadline := time.Now().Add(30 * time.Second); len(coord.Fleet().Workers) < nworkers; {
		if time.Now().After(deadline) {
			return repResult{}, fmt.Errorf("fabric workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	res := repResult{SetupS: a.sinceSpawn()}
	if a.mode == "setup" {
		return res, nil
	}

	cl := &service.Client{Base: s.base}
	spec := fabricSpec(a.seed)
	t0, c0 := time.Now(), cpuTime()
	jr := submitAndStream(cl, "job", "fabric", &spec, nil)
	end := time.Now()
	res.PassS, res.PassCPUS = end.Sub(t0).Seconds(), (cpuTime() - c0).Seconds()
	res.Ops = []opResult{jr.op}
	if sp == nil || jr.id == "" {
		return res, nil
	}
	sp.addAs(passID, 0, "fabric.pass", t0, end)
	st, err := cl.Job(jr.id)
	if err != nil {
		return res, err
	}
	cells, err := jobCells(cl, sp, passID, st)
	if err != nil {
		return res, err
	}
	stopWorkers()
	fleet := coord.Fleet()
	r0 := time.Now()
	re, err := store.OpenShared[cluster.Result](dir, "reopen")
	if err != nil {
		return res, err
	}
	reopen := time.Since(r0)
	re.Close()

	// The trace's cell spans run from claim to settle, so they overlap
	// within a claimed batch; the workers' own clocks give execution time.
	capacity := float64(end.Sub(t0)) * float64(nworkers)
	var cellDur []time.Duration
	for _, ds := range cells {
		cellDur = append(cellDur, ds...)
	}
	workerCell := sp.durations("fabric.worker_cell")
	storeTime := sum(sp.durations("store.get")) + sum(sp.durations("store.put"))
	claims := msOf(sp.durations("http /v1/workers/claim"))
	completes := msOf(sp.durations("http /v1/workers/complete"))
	m := map[string]float64{
		"service.submit_ms":              ms(jr.submit),
		"service.queue_wait_ms_p50":      ms(st.Started.Sub(st.Created)),
		"service.queue_wait_ms_p90":      ms(st.Started.Sub(st.Created)),
		"service.run_ms_p50":             ms(st.Finished.Sub(*st.Started)),
		"service.run_ms_p90":             ms(st.Finished.Sub(*st.Started)),
		"service.stream_lag_ms":          ms(jr.done.Sub(*st.Finished)),
		"sweep.cell_ms_p50":              quantile(msOf(cellDur), 0.5),
		"sweep.cell_ms_p90":              quantile(msOf(cellDur), 0.9),
		"sweep.idle_share":               1 - float64(sum(workerCell))/capacity,
		"cluster.busy_share":             float64(sum(workerCell)-storeTime) / capacity,
		"store.get_us_p50":               quantile(usOf(sp.durations("store.get")), 0.5),
		"store.get_us_p90":               quantile(usOf(sp.durations("store.get")), 0.9),
		"store.put_us_p50":               quantile(usOf(sp.durations("store.put")), 0.5),
		"store.put_us_p90":               quantile(usOf(sp.durations("store.put")), 0.9),
		"store.reopen_ms":                ms(reopen),
		"fabric.claim_rtt_ms_p50":        quantile(claims, 0.5),
		"fabric.claim_rtt_ms_p90":        quantile(claims, 0.9),
		"fabric.complete_rtt_ms_p50":     quantile(completes, 0.5),
		"fabric.complete_rtt_ms_p90":     quantile(completes, 0.9),
		"fabric.worker_cell_ms":          median(msOf(workerCell)),
		"fabric.dispatch_overhead_share": 1 - float64(sum(workerCell))/capacity,
		"fabric.reassigned":              float64(fleet.Reassigned),
		"fabric.rejected":                float64(fleet.Rejected),
	}
	addSweepCounts(m, st.Simulated, st.Analytic, st.MemoHits, st.StoreHits, st.Remote)
	res.Layer = m
	return res, nil
}
