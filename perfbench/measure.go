package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

// opResult is one checked operation of a repetition: a sweep pass or a
// service job.
type opResult struct {
	Key       string  `json:"key"` // names the expected output in the run's plan
	Class     string  `json:"class"`
	Cells     int     `json:"cells"`
	LatencyMS float64 `json:"latency_ms"`
	Digest    string  `json:"digest"`
	Err       string  `json:"err,omitempty"`
}

// repResult is what one child process reports for its repetition.
type repResult struct {
	SetupS   float64            `json:"setup_s"`
	PassS    float64            `json:"pass_s"`
	PassCPUS float64            `json:"pass_cpu_s"` // user plus system CPU time of the pass
	RSSMB    float64            `json:"peak_rss_mb"`
	Ops      []opResult         `json:"ops"`
	Layer    map[string]float64 `json:"layer,omitempty"`
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// span is one traced interval, recorded by the benchmark's own clocks
// around calls into the program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	Run    string `json:"run"`
}

// spans keeps every span of a traced repetition in memory; they are written
// out once the run ends. A nil *spans records nothing.
type spans struct {
	run  string
	mu   sync.Mutex
	next atomic.Int64
	list []span
}

// reserve returns a fresh span id, for a span whose children are recorded
// before it ends.
func (s *spans) reserve() int64 {
	if s == nil {
		return 0
	}
	return s.next.Add(1)
}

// add records a finished span and returns its id.
func (s *spans) add(parent int64, name string, start, end time.Time) int64 {
	return s.addAs(s.reserve(), parent, name, start, end)
}

// addAs records a finished span under a reserved id.
func (s *spans) addAs(id, parent int64, name string, start, end time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Run: s.run})
	s.mu.Unlock()
	return id
}

// durations returns the durations of every span with the given name.
func (s *spans) durations(name string) []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []time.Duration
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, time.Duration(sp.End-sp.Start))
		}
	}
	return out
}

func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// timedStore records a span around every Get and Put of the store it wraps.
type timedStore struct {
	store.Store[cluster.Result]
	sp     *spans
	parent int64
}

func (t timedStore) Get(key string) (cluster.Result, bool) {
	t0 := time.Now()
	r, ok := t.Store.Get(key)
	t.sp.add(t.parent, "store.get", t0, time.Now())
	return r, ok
}

func (t timedStore) Put(key string, v cluster.Result) error {
	t0 := time.Now()
	err := t.Store.Put(key, v)
	t.sp.add(t.parent, "store.put", t0, time.Now())
	return err
}

// timedTransport records a span named after the request path around every
// round trip.
type timedTransport struct {
	base   http.RoundTripper
	sp     *spans
	parent int64
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.sp.add(t.parent, "http "+req.URL.Path, t0, time.Now())
	return resp, err
}
