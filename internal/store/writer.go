package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
)

// record is one log line: a key and its JSON-encoded value.
type record struct {
	Key string          `json:"k"`
	Val json.RawMessage `json:"v"`
}

// segStore is the segment-log store Disk and Shared both embed: the lazy
// index over every segment it has loaded, the directory locks, and one
// segWriter appending this store's records. Disk writes plain seg-N
// segments and owns every segment in the directory; a Shared owner writes
// and owns only its seg-<owner>-N lease and tails the rest itself.
type segStore[R any] struct {
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	// Set it before the first Put; it is read under the store lock.
	SegmentBytes int64

	dir   string
	locks []*os.File // flock-held lock files, released by Close
	cfg   config
	met   atomic.Pointer[Metrics]

	idx *index[R]
	tab *segTable

	// Writer state. Reads never take wmu — they go through the sharded
	// index and per-segment read handles.
	wmu    sync.Mutex
	w      segWriter
	closed bool

	dropped  atomic.Int64
	replayed atomic.Int64
}

// open takes the directory locks and loads the segments this store owns:
// all of them for a Disk (owner ""), only the owner's lease for a Shared
// store. It returns the remaining segments, which a Shared store tails.
//
// Lock rule: a Disk holds dir/.lock exclusively; a Shared owner holds it
// shared, plus dir/.lock-<owner> exclusively. So any number of owners share
// a directory, and a Disk — which compacts and deletes every segment it
// owns — never opens beside them.
func (s *segStore[R]) open(dir, owner string, opts []Option) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.SegmentBytes, s.dir, s.cfg, s.tab = DefaultSegmentBytes, dir, buildConfig(opts), &segTable{}
	s.met.Store(s.cfg.metrics)
	s.idx = newIndex[R](s.cfg.shards, s.cfg.cacheEntries, s.cfg.legacy, &s.met)
	s.w = segWriter{dir: dir, prefix: "seg-", tab: s.tab, met: &s.met, live: map[int32]string{}}
	if owner == "" {
		if err := s.lock(".lock", syscall.LOCK_EX); err != nil {
			return nil, fmt.Errorf("store: %s is held by another Disk store or a Shared owner (a Disk store is single-writer): %w", dir, err)
		}
	} else {
		s.w.prefix = "seg-" + owner + "-"
		if err := s.lock(".lock", syscall.LOCK_SH); err != nil {
			return nil, fmt.Errorf("store: %s is held by a Disk store: %w", dir, err)
		}
		if err := s.lock(".lock-"+owner, syscall.LOCK_EX); err != nil {
			s.Close()
			return nil, fmt.Errorf("store: owner %q already writes to %s (owners must be unique per live process): %w", owner, dir, err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	// Register ids in name order (zero-padded names sort in write order) so
	// the index's (segment, offset) versioning matches write order; replay
	// then runs concurrently — last-write-wins is resolved per key by that
	// versioning, not by replay scheduling. New writes always start a fresh
	// segment numbered after the newest of this store's own: the old tail
	// may end in a torn line.
	sort.Strings(segs)
	var foreign []string
	for _, path := range segs {
		n, own := segSeqOf(filepath.Base(path), s.w.prefix)
		if own && n > s.w.seq {
			s.w.seq = n
		}
		if !own && owner != "" {
			foreign = append(foreign, path)
			continue
		}
		s.w.live[s.tab.add(path)] = path
	}
	if err := s.replayAll(); err != nil {
		s.Close()
		return nil, err
	}
	return foreign, nil
}

// lock flocks dir/name without blocking and keeps it until Close.
func (s *segStore[R]) lock(name string, how int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := syscall.Flock(int(f.Fd()), how|syscall.LOCK_NB); err != nil {
		f.Close()
		return err
	}
	s.locks = append(s.locks, f)
	return nil
}

// replayAll indexes every owned segment, a bounded worker per segment.
func (s *segStore[R]) replayAll() error {
	sem := make(chan struct{}, max(1, min(runtime.GOMAXPROCS(0), len(s.w.live))))
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for id, path := range s.w.live {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			if err := s.replayOne(path, id); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// replayOne indexes one owned segment. The segment is static now — this
// store always writes a fresh one — so a torn tail counts as dropped, and
// a segment that had to be scanned gets its sidecar rewritten so the next
// open takes the fast path.
func (s *segStore[R]) replayOne(path string, id int32) error {
	res, err := s.indexSegment(path, id, 0)
	if err != nil {
		return err
	}
	if res.torn {
		s.dropped.Add(1)
	}
	if res.parsed > 0 && writeSidecar(path, res.consumed, res.dropped, res.entries) == nil {
		s.met.Load().sidecarRebuild()
	}
	return nil
}

// indexSegment indexes a segment's complete lines from byte offset from.
// From the start, a valid sidecar covers its prefix without parsing a line;
// only the bytes past it are scanned. The result counts the whole pass —
// entries indexed, lines dropped and parsed, whether a newline-less tail
// remains — and its consumed field is the absolute offset after the last
// complete line.
func (s *segStore[R]) indexSegment(path string, id int32, from int64) (scanResult, error) {
	st, err := os.Stat(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("store: %w", err)
	}
	size := st.Size()
	if size > maxSegmentOff {
		return scanResult{}, fmt.Errorf("store: %s: %w", path, errSegmentTooLarge)
	}
	res := scanResult{consumed: from}
	if from == 0 {
		if entries, dropped, covered, ok := loadSidecar(path, size); ok {
			res = scanResult{entries: entries, dropped: dropped, consumed: covered}
			s.met.Load().sidecarLoad()
		}
	}
	if res.consumed < size {
		f, err := os.Open(path)
		if err != nil {
			return scanResult{}, fmt.Errorf("store: %w", err)
		}
		var tail scanResult
		if _, err = f.Seek(res.consumed, 0); err == nil {
			tail, err = scanSegment(f, res.consumed)
		}
		f.Close()
		if err != nil {
			return scanResult{}, fmt.Errorf("store: reading %s: %w", path, err)
		}
		res.entries = append(res.entries, tail.entries...)
		res.dropped += tail.dropped
		res.parsed = tail.parsed
		res.consumed += tail.consumed
		res.torn = tail.torn
	}
	for _, e := range res.entries {
		s.idx.setIfNewer(e.Key, ref{off: e.Off, llen: e.Len, seg: id}, nil)
	}
	s.dropped.Add(int64(res.dropped))
	s.replayed.Add(int64(res.parsed))
	return res, nil
}

// SetMetrics attaches (or, with nil, detaches) observability series. Safe to
// call at any time, including while the store is in use.
func (s *segStore[R]) SetMetrics(m *Metrics) {
	s.met.Store(m)
	m.records(s.Len())
}

// Get returns the stored value for key, if any: an index hit serves from
// the decode cache or reads exactly one record's bytes off disk.
func (s *segStore[R]) Get(key string) (R, bool) {
	mt := s.met.Load()
	t0 := mt.start()
	v, ok := s.get(key)
	mt.lookup(t0, ok)
	return v, ok
}

// get is the untimed read path: index → LRU → one pread. A ref invalidated
// by a concurrent compaction retries once through the index.
func (s *segStore[R]) get(key string) (R, bool) {
	var zero R
	for attempt := 0; attempt < 2; attempt++ {
		v, rf, cached, ok := s.idx.cachedOrRef(key)
		if !ok {
			return zero, false
		}
		if cached {
			return v, true
		}
		got, err := fetchRecord[R](s.tab, rf, key)
		if err == nil {
			s.idx.admit(key, rf, got)
			return got, true
		}
		if errors.Is(err, errStaleRef) {
			continue // compaction moved the record; re-resolve
		}
		s.met.Load().decodeError()
		return zero, false
	}
	return zero, false
}

// Put appends the record to the active segment and updates the index. The
// write is a single syscall (no userspace buffering), so a settled Put is on
// the page cache even if the process dies, and a concurrent reader of the
// segment only ever sees whole lines plus at most one torn tail; Sync forces
// it to the platter.
func (s *segStore[R]) Put(key string, v R) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	line, err := encodeRecord(key, v)
	if err != nil {
		return err
	}
	mt := s.met.Load()
	t0 := mt.start()
	s.wmu.Lock()
	if s.closed {
		s.wmu.Unlock()
		return fmt.Errorf("store: closed")
	}
	rf, err := s.w.append(key, line, s.SegmentBytes)
	if err == nil {
		// Index before releasing wmu: Compact snapshots the index under wmu
		// and deletes the superseded segment files, so a Put that has
		// written its bytes must be visible to that snapshot or the
		// acknowledged write is lost with its segment. setIfNewer only takes
		// a per-shard lock (which never waits on wmu), so this cannot
		// deadlock.
		s.idx.setIfNewer(key, rf, &v)
	}
	s.wmu.Unlock()
	if err != nil {
		return err
	}
	mt.appended(t0, s.Len())
	return nil
}

// encodeRecord renders one log line (including the trailing newline).
func encodeRecord[R any](key string, v R) ([]byte, error) {
	val, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	line, err := json.Marshal(record{Key: key, Val: val})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return append(line, '\n'), nil
}

// Keys returns every indexed key, sorted. O(n log n) — prefer Len for
// stats-style callers. A Shared store's view may lag other owners' latest
// writes until its next Refresh.
func (s *segStore[R]) Keys() []string { return s.idx.keys() }

// Len returns the number of indexed keys. Allocation-free: a single atomic
// load off the sharded index.
func (s *segStore[R]) Len() int { return int(s.idx.count.Load()) }

// Legacy returns how many stored keys the configured WithLegacyKey
// predicate classifies as legacy (pre-current-fingerprint generations).
// Counted incrementally during replay and Put — never by rescanning keys —
// and reduced by Compact, which drops legacy records. Zero when the store
// was opened without a predicate.
func (s *segStore[R]) Legacy() int { return int(s.idx.legacy.Load()) }

// Dropped returns how many unparsable log lines were skipped so far —
// normally zero; nonzero after a crash tore a segment's final line, or if a
// segment was corrupted out-of-band.
func (s *segStore[R]) Dropped() int { return int(s.dropped.Load()) }

// Replayed returns how many record lines were JSON-parsed while opening (or,
// for a Shared store, refreshing) the store. A warm open — every segment
// carrying a valid sidecar — reports 0: the index was built from offsets
// alone.
func (s *segStore[R]) Replayed() int { return int(s.replayed.Load()) }

// Dir returns the directory backing the store.
func (s *segStore[R]) Dir() string { return s.dir }

// Sync forces the active segment to stable storage.
func (s *segStore[R]) Sync() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.w.f == nil {
		return nil
	}
	if err := s.w.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close fsyncs and seals the active segment (sidecar included, so the next
// open is warm), closes every read handle and releases the directory locks.
// The index stays readable; Put fails after Close.
func (s *segStore[R]) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.w.seal(true)
	s.tab.closeAll()
	for _, l := range s.locks {
		if cerr := l.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("store: %w", cerr)
		}
	}
	s.locks = nil
	return err
}

// segWriter appends record lines to a numbered series of segment files,
// <dir>/<prefix><seq>.jsonl, rotating at a size limit and sealing each
// segment with its sidecar: the same on-disk product whoever drives it. A
// store's Put path drives one; Compact drives a second into fresh segments.
type segWriter struct {
	dir, prefix string
	tab         *segTable
	met         *atomic.Pointer[Metrics]

	f       *os.File // active segment; nil until the first append
	id      int32    // its id in the segment table
	path    string
	size    int64
	seq     int              // sequence number of the newest segment
	torn    bool             // last write failed: rotate before appending again
	pending []sideEntry      // active segment's records, for its sidecar
	live    map[int32]string // id → path of every segment this writer owns
}

// append writes one line, rotating first when the active segment is full,
// absent or torn, and returns the line's ref.
func (w *segWriter) append(key string, line []byte, limit int64) (ref, error) {
	if w.f == nil || w.size >= limit || w.torn || w.size+int64(len(line)) > maxSegmentOff {
		if err := w.rotate(); err != nil {
			return ref{}, err
		}
	}
	if _, err := w.f.Write(line); err != nil {
		// A short write may have left a torn, newline-less tail; another
		// append would glue onto it and corrupt BOTH records on reload.
		// Rotate before the next write — reload then drops only the torn
		// line, whose append already reported failure.
		w.torn = true
		return ref{}, fmt.Errorf("store: %w", err)
	}
	r := ref{off: uint32(w.size), llen: uint32(len(line) - 1), seg: w.id}
	w.pending = append(w.pending, sideEntry{Off: r.off, Len: r.llen, Key: key})
	w.size += int64(len(line))
	return r, nil
}

// rotate seals the active segment and opens the next one.
func (w *segWriter) rotate() error {
	if err := w.seal(false); err != nil {
		return err
	}
	w.torn = false
	w.seq++
	path := filepath.Join(w.dir, fmt.Sprintf("%s%08d.jsonl", w.prefix, w.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.f, w.path, w.size, w.pending = f, path, 0, nil
	w.id = w.tab.add(path)
	w.live[w.id] = path
	w.met.Load().rotated()
	return nil
}

// seal closes the active segment, writing its sidecar first so the next
// open (and every Shared reader) never replays it. Sidecar failures are
// swallowed: the sidecar is a cache, and replay rebuilds it. With sync the
// segment is fsynced before it closes — Close wants that, and Compact needs
// it: old segments are deleted on the strength of these bytes being durable.
func (w *segWriter) seal(sync bool) error {
	if w.f == nil {
		return nil
	}
	if writeSidecar(w.path, w.size, 0, w.pending) == nil {
		w.met.Load().sidecarRebuild()
	}
	var err error
	if sync {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f, w.pending = nil, nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
