package sweep

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Cache memoizes scenario results by canonical fingerprint. It is safe for
// concurrent use and deduplicates in-flight work: when two workers reach the
// same key at once, one computes and the other blocks on the result
// (singleflight semantics), so a repeated cell never runs twice.
type Cache[R any] struct {
	mu sync.Mutex
	m  map[string]*cacheEntry[R]
}

type cacheEntry[R any] struct {
	once sync.Once
	val  R
	// done flips to true once val is written; readers that observe it may
	// read val without racing the computing goroutine.
	done atomic.Bool
}

// NewCache returns an empty result cache.
func NewCache[R any]() *Cache[R] {
	return &Cache[R]{m: map[string]*cacheEntry[R]{}}
}

// Do returns the cached result for key, computing it with f on first use.
// The second return reports whether the result came from the cache (true)
// rather than from running f in this call.
func (c *Cache[R]) Do(key string, f func() R) (R, bool) {
	c.mu.Lock()
	e, hit := c.m[key]
	if !hit {
		e = &cacheEntry[R]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	ran := false
	e.once.Do(func() {
		e.val = f()
		e.done.Store(true)
		ran = true
	})
	return e.val, !ran
}

// Len returns the number of memoized scenarios, including entries whose
// computation is still in flight.
func (c *Cache[R]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Keys returns the fingerprints of every settled entry, sorted. Entries
// whose computation is still in flight are excluded — their value cannot be
// read yet — so the result is a consistent, deterministic inventory of what
// the cache actually holds.
func (c *Cache[R]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.m))
	for k, e := range c.m {
		if e.done.Load() {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
