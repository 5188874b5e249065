package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scalefold"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
)

// server is an in-process service.Server on a loopback listener.
type server struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan error
}

func startServer(cfg service.Config) (*server, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop cancels what is left, closes the store and waits for the HTTP server
// to exit.
func (s *server) stop() error {
	err := s.srv.Close()
	s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tableHeader is the canonical result-table header every row event carries.
var tableHeader = scalefold.SweepTable(nil).Header

// rowsDigest rebuilds a job's CSV from its streamed rows, in grid order, so
// it compares byte for byte with a local sweep's sweepDigest.
func rowsDigest(evs []service.RowEvent) (string, error) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Index < evs[j].Index })
	tab := sweep.Table{Header: tableHeader}
	for _, ev := range evs {
		row := make([]string, len(tableHeader))
		for i, h := range tableHeader {
			row[i] = ev.Data[h]
		}
		tab.Append(row...)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		return "", err
	}
	return digestOf(buf.Bytes()), nil
}

func frontierDigest(f scalefold.Frontier) (string, error) {
	b, err := json.Marshal(f)
	return digestOf(b), err
}

// jobRun is what a client saw of one job.
type jobRun struct {
	op     opResult
	id     string        // "" when the submission was refused
	submit time.Duration // the submit call
	done   time.Time     // when the stream's done event arrived
	span   int64         // the job's span, in a traced repetition
}

// submitAndStream submits one job and follows its stream to the done event.
func submitAndStream(cl *service.Client, key, class string, js *service.JobSpec, ss *service.SearchJobSpec) jobRun {
	jr := jobRun{op: opResult{Key: key, Class: class}}
	t0 := time.Now()
	var st service.JobStatus
	var err error
	if ss != nil {
		st, err = cl.SubmitSearch(*ss)
	} else {
		st, err = cl.Submit(*js)
	}
	jr.submit = time.Since(t0)
	if err != nil {
		jr.op.Err = err.Error()
		jr.done = time.Now()
		return jr
	}
	jr.id = st.ID
	var done service.DoneEvent
	if ss != nil {
		var f *scalefold.Frontier
		f, done, err = cl.SearchStream(st.ID, nil)
		if err == nil && f != nil {
			jr.op.Cells = f.Used
			jr.op.Digest, err = frontierDigest(*f)
		}
	} else {
		var evs []service.RowEvent
		done, err = cl.Stream(st.ID, func(ev service.RowEvent) error {
			evs = append(evs, ev)
			return nil
		})
		jr.op.Cells = len(evs)
		if err == nil {
			jr.op.Digest, err = rowsDigest(evs)
		}
	}
	jr.done = time.Now()
	jr.op.LatencyMS = ms(jr.done.Sub(t0))
	switch {
	case err != nil:
		jr.op.Err = err.Error()
	case done.State != service.StateDone:
		jr.op.Err = fmt.Sprintf("job %s ended %s: %s", st.ID, done.State, done.Error)
	}
	return jr
}

func jobKey(i int) string { return fmt.Sprintf("job-%03d", i) }

// serveExpected runs every scheduled job locally — sweeps through
// SweepSpec.Run, searches through SearchSpec.Run — and returns the digest
// each served job must reproduce.
func serveExpected(seed int64) (map[string]string, error) {
	jobs := serveSchedule(seed)
	digests := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	memo := sweep.NewCache[cluster.Result]() // repeat jobs share cells
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				digests[i], errs[i] = localDigest(jobs[i], memo)
			}
		}()
	}
	wg.Wait()
	want := map[string]string{}
	for i, d := range digests {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference for %s: %w", jobKey(i), errs[i])
		}
		want[jobKey(i)] = d
	}
	return want, nil
}

// localDigest runs one serve-mixed job in this process.
func localDigest(j serveJob, memo *sweep.Cache[cluster.Result]) (string, error) {
	if j.Search != nil {
		s := searchOf(*j.Search)
		s.Cache = sweep.NewCache[cluster.Result]()
		s.Store = store.NewMem[cluster.Result]()
		f, err := s.Run()
		if err != nil {
			return "", err
		}
		return frontierDigest(f)
	}
	s := sweepOf(*j.Sweep)
	s.Cache = memo
	s.Store = store.NewMem[cluster.Result]()
	rows, err := s.Run(nil)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := scalefold.SweepTable(rows).WriteCSV(&buf); err != nil {
		return "", err
	}
	return digestOf(buf.Bytes()), nil
}

// repServe is one repetition of serve-mixed: a server on a copy of the
// populated store, and closed-loop clients working through the schedule.
func repServe(a childArgs, sp *spans) (repResult, error) {
	jobs := serveSchedule(a.seed)
	workers := runtime.GOMAXPROCS(0)
	s, err := startServer(service.Config{StoreDir: filepath.Join(a.dir, "store"), Workers: workers})
	if err != nil {
		return repResult{}, err
	}
	res := repResult{SetupS: a.sinceSpawn()}
	if a.mode == "setup" {
		return res, s.stop()
	}

	nclients := min(2, runtime.NumCPU())
	passID := sp.reserve()
	runs := make([]jobRun, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0, c0 := time.Now(), cpuTime()
	for c := 0; c < nclients; c++ {
		cl := &service.Client{Base: s.base}
		if sp != nil {
			cl.HTTP = &http.Client{Transport: timedTransport{http.DefaultTransport, sp, passID}}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				start := time.Now()
				runs[i] = submitAndStream(cl, jobKey(i), jobs[i].Class, jobs[i].Sweep, jobs[i].Search)
				runs[i].span = sp.add(passID, "job "+jobs[i].Class, start, runs[i].done)
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	res.PassS, res.PassCPUS = end.Sub(t0).Seconds(), (cpuTime() - c0).Seconds()
	for _, jr := range runs {
		res.Ops = append(res.Ops, jr.op)
	}
	if sp != nil {
		sp.addAs(passID, 0, "serve.pass", t0, end)
		res.Layer, err = serveLayer(&service.Client{Base: s.base}, sp, jobs, runs, end.Sub(t0), workers)
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	return res, err
}

// serveLayer derives serve-mixed's service, search, sweep and cluster
// metrics from the jobs' statuses and traces, read after the timed pass.
func serveLayer(cl *service.Client, sp *spans, jobs []serveJob, runs []jobRun, wall time.Duration, workers int) (map[string]float64, error) {
	sts, err := cl.Jobs()
	if err != nil {
		return nil, err
	}
	byID := map[string]service.JobStatus{}
	for _, st := range sts {
		byID[st.ID] = st
	}
	m := map[string]float64{}
	var queue, run, lag, submit []float64
	var cellDur []time.Duration
	var simDur time.Duration
	var sim, ana, memo, hits, remote, probes, exactProbes int64
	var searchRun float64
	classLat := map[string][]float64{}
	refused := 0
	for i, jr := range runs {
		if jr.id == "" {
			if strings.Contains(jr.op.Err, "HTTP 503") {
				refused++
			}
			continue
		}
		st, ok := byID[jr.id]
		if !ok || st.Started == nil || st.Finished == nil {
			return nil, fmt.Errorf("job %s: no lifecycle timestamps", jr.id)
		}
		classLat[jobs[i].Class] = append(classLat[jobs[i].Class], jr.op.LatencyMS)
		submit = append(submit, ms(jr.submit))
		queue = append(queue, ms(st.Started.Sub(st.Created)))
		run = append(run, ms(st.Finished.Sub(*st.Started)))
		lag = append(lag, ms(jr.done.Sub(*st.Finished)))
		if st.Kind == service.KindSearch {
			probes += int64(st.Probes)
			exactProbes += st.Simulated
			searchRun += ms(st.Finished.Sub(*st.Started))
		}
		sim, ana, memo, hits, remote = sim+st.Simulated, ana+st.Analytic, memo+st.MemoHits, hits+st.StoreHits, remote+st.Remote
		cells, err := jobCells(cl, sp, jr.span, st)
		if err != nil {
			return nil, err
		}
		for src, ds := range cells {
			if src != "memo" {
				cellDur = append(cellDur, ds...)
			}
		}
		simDur += sum(cells["simulated"])
	}
	m["service.submit_ms"] = median(submit)
	m["service.queue_wait_ms_p50"] = quantile(queue, 0.5)
	m["service.queue_wait_ms_p90"] = quantile(queue, 0.9)
	m["service.run_ms_p50"] = quantile(run, 0.5)
	m["service.run_ms_p90"] = quantile(run, 0.9)
	m["service.stream_lag_ms"] = median(lag)
	m["service.refused"] = float64(refused)
	for _, c := range classes {
		m["service.class_latency_p50_ms."+c] = median(classLat[c])
	}
	m["search.probes"] = float64(probes)
	m["search.exact_probes"] = float64(exactProbes)
	if probes > 0 {
		m["search.probe_ms"] = searchRun / float64(probes)
	}
	capacity := float64(wall) * float64(workers)
	m["sweep.cell_ms_p50"] = quantile(msOf(cellDur), 0.5)
	m["sweep.cell_ms_p90"] = quantile(msOf(cellDur), 0.9)
	m["sweep.idle_share"] = 1 - float64(sum(cellDur))/capacity
	m["cluster.busy_share"] = float64(simDur) / capacity
	addSweepCounts(m, sim, ana, memo, hits, remote)
	return m, nil
}

// jobCells downloads a job's trace and returns its cell spans' durations by
// resolution source, copying the spans into sp.
func jobCells(cl *service.Client, sp *spans, parent int64, st service.JobStatus) (map[string][]time.Duration, error) {
	var buf bytes.Buffer
	if err := cl.Trace(st.ID, &buf); err != nil {
		return nil, err
	}
	var evs []obs.TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		return nil, fmt.Errorf("job %s trace: %w", st.ID, err)
	}
	return addTracerCells(sp, parent, st.Created, evs), nil
}
