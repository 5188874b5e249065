package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Shared is the multi-writer sibling of Disk: several processes (fabric
// workers, a coordinator) share one result directory, each appending only to
// its own lease — segments named seg-<owner>-NNNNNNNN.jsonl, guarded by an
// exclusive flock on .lock-<owner> — while reading everyone's. No write path
// is ever contended across processes, so the single-writer invariant Disk
// enforces per directory holds per owner instead.
//
// Shared is built on the same segment store as Disk: the
// fingerprint-sharded lazy index (key → segment/offset/length, values
// decoded on demand through a bounded LRU), the segment writer with its
// sidecars, warm opens, and Compact — which rewrites only this owner's
// segments and leaves every other owner's untouched. SegmentBytes works as
// on Disk.
//
// Foreign segments are tailed incrementally: Refresh (and every Get miss)
// indexes only the bytes other owners appended since the last look, and only
// complete lines — a torn tail another process is mid-writing is left for the
// next pass, never dropped. A foreign segment's sidecar (written when its
// owner sealed it) warm-starts the tail at the covered prefix. Because values
// are deterministic functions of their fingerprint key, concurrent writers
// racing on the same key are byte-equivalent and last-write-wins is safe.
type Shared[R any] struct {
	segStore[R]
	owner string

	// Reader state for everyone else's segments.
	rmu     sync.Mutex
	foreign map[string]*foreignSeg // path → tail progress
}

// foreignSeg tracks how far into another owner's segment we have indexed.
type foreignSeg struct {
	id       int32
	consumed int64 // bytes indexed (complete lines only)
}

// OpenShared opens (creating if needed) a shared store rooted at dir, writing
// as owner. The owner names this writer's lease: it must be unique among live
// processes sharing the directory (hostname-pid style) and path-safe
// (letters, digits, '.', '_', '-'). Opening indexes every segment in the
// directory — this owner's previous runs replay concurrently (sidecar-warm
// when possible, self-healing when not), other owners' tails start from their
// sidecars' covered prefix; fresh writes always start a new segment.
//
// A directory may be used by Disk and Shared stores at different times (both
// speak the same JSON-lines record format and Disk replays owner-named
// segments), but not concurrently: every owner holds dir/.lock shared and a
// Disk holds it exclusively, so whichever opens second fails fast.
func OpenShared[R any](dir, owner string, opts ...Option) (*Shared[R], error) {
	if err := validOwner(owner); err != nil {
		return nil, err
	}
	s := &Shared[R]{owner: owner, foreign: map[string]*foreignSeg{}}
	foreign, err := s.open(dir, owner, opts)
	if err != nil {
		return nil, err
	}
	s.rmu.Lock()
	defer s.rmu.Unlock()
	for _, path := range foreign {
		if _, err := s.tailLocked(path); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func validOwner(owner string) error {
	if owner == "" {
		return fmt.Errorf("store: empty owner")
	}
	for _, r := range owner {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("store: owner %q: only letters, digits, '.', '_' and '-' are allowed", owner)
		}
	}
	return nil
}

// segSeqOf parses prefix + zero-padded digits + ".jsonl", reporting the
// sequence number. Anything else — another owner's lease, foreign droppings —
// reports false.
func segSeqOf(base, prefix string) (int, bool) {
	num, ok := strings.CutPrefix(base, prefix)
	if !ok {
		return 0, false
	}
	num, ok = strings.CutSuffix(num, ".jsonl")
	if !ok || num == "" {
		return 0, false
	}
	for _, r := range num {
		if r < '0' || r > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return 0, false
	}
	return n, true
}

// tailLocked indexes a foreign segment from its consumed offset — from its
// owner's sidecar on first contact — scanning only complete
// (newline-terminated) lines; a partial tail stays unconsumed for the next
// pass. Reports how many records were indexed. Callers hold s.rmu.
func (s *Shared[R]) tailLocked(path string) (int, error) {
	seg := s.foreign[path]
	if seg == nil {
		seg = &foreignSeg{id: s.tab.add(path)}
		s.foreign[path] = seg
	}
	res, err := s.indexSegment(path, seg.id, seg.consumed)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil // raced a cleanup; forget it
	}
	if err != nil {
		return 0, err
	}
	seg.consumed = res.consumed
	return len(res.entries), nil
}

// Refresh scans the directory for bytes other owners appended since the last
// look and indexes them. It reports how many records were applied. Get calls
// it automatically on a miss; call it directly to pre-warm before a batch.
func (s *Shared[R]) Refresh() (int, error) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	segs, err := filepath.Glob(filepath.Join(s.dir, "seg-*.jsonl"))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs)
	total := 0
	for _, path := range segs {
		// Skip only segments that parse as our own lease — the same rule
		// OpenShared partitions by. A bare prefix check would also skip a
		// dash-prefixed sibling's segments (owner "w1" vs "w1-2"), leaving
		// that owner's records permanently untailed.
		if _, ok := segSeqOf(filepath.Base(path), s.w.prefix); ok {
			continue // our lease: indexed at write time
		}
		n, err := s.tailLocked(path)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Get returns the stored value for key. A miss triggers one incremental
// Refresh — the "any worker's finished cell is every worker's memo hit"
// path — before giving up.
func (s *Shared[R]) Get(key string) (R, bool) {
	mt := s.met.Load()
	t0 := mt.start()
	v, ok := s.get(key)
	if !ok {
		s.Refresh() // best-effort: a read error just means a miss
		v, ok = s.get(key)
	}
	mt.lookup(t0, ok)
	mt.records(s.Len())
	return v, ok
}

// Compact rewrites this owner's segments down to their live records —
// records whose newest version lives in another owner's segment are left
// exactly where they are, and foreign segment files are never touched. Safe
// to run on one member of a live fleet: other owners keep reading the old
// segments they have open and pick up the compacted ones on their next
// refresh (byte-identical records, so either view agrees).
func (s *Shared[R]) Compact() (CompactStats, error) {
	// Freeze foreign tailing too: the index rebuild must not lose entries a
	// concurrent Refresh would add between snapshot and commit. Get misses
	// block on the refresh lock for the duration; indexed Gets stay live.
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.segStore.Compact()
}

// Owner returns the name of this writer's lease.
func (s *Shared[R]) Owner() string { return s.owner }
