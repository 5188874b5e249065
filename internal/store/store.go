// Package store persists scenario results across process lifetimes. The
// sweep engine's in-memory memo (sweep.Cache) dies with the process; a Store
// is the durable layer underneath it, keyed by the same canonical scenario
// fingerprint (cluster.Options.Fingerprint plus the kernel-census options),
// so a result simulated by one `scalefold sweep`, one figure runner or one
// sweep-service job is served for free to every later one.
//
// Three implementations ship: Mem, a trivial map for tests and store-less
// serving; Disk, an append-only JSON-lines segment log reloaded at startup,
// with one writer per directory; and Shared, the same log written by many
// processes, each appending to its own lease and tailing the others'. Disk
// and Shared are built on one segment store and never open one directory
// at the same time. All are safe for concurrent use.
package store

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Store is the persistence interface the scalefold memo sits on. Get and Put
// must be safe for concurrent use. Put overwrites: the last value written
// for a key wins. Unlike sweep.Cache there is no singleflight here — in-
// flight deduplication stays the memo's job; the store only settles results.
type Store[R any] interface {
	// Get returns the stored value for key, if any.
	Get(key string) (R, bool)
	// Put stores the value under key, replacing any previous value.
	Put(key string, v R) error
	// Keys returns every stored key, sorted.
	Keys() []string
	// Len returns the number of stored keys.
	Len() int
}

// Mem is an in-memory Store: process-lifetime persistence only. Useful for
// tests and for running the sweep service without a disk directory.
type Mem[R any] struct {
	mu  sync.RWMutex
	m   map[string]R
	met atomic.Pointer[Metrics]
}

// NewMem returns an empty in-memory store.
func NewMem[R any]() *Mem[R] { return &Mem[R]{m: map[string]R{}} }

// SetMetrics attaches (or, with nil, detaches) observability series. Safe to
// call at any time, including while the store is in use.
func (s *Mem[R]) SetMetrics(m *Metrics) {
	s.met.Store(m)
	m.records(s.Len())
}

// Get returns the stored value for key, if any.
func (s *Mem[R]) Get(key string) (R, bool) {
	mt := s.met.Load()
	t0 := mt.start()
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	mt.lookup(t0, ok)
	return v, ok
}

// Put stores the value under key. It never fails.
func (s *Mem[R]) Put(key string, v R) error {
	mt := s.met.Load()
	t0 := mt.start()
	s.mu.Lock()
	s.m[key] = v
	n := len(s.m)
	s.mu.Unlock()
	mt.appended(t0, n)
	return nil
}

// Keys returns every stored key, sorted.
func (s *Mem[R]) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of stored keys.
func (s *Mem[R]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
