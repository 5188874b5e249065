package store

import (
	"fmt"
	"os"
	"sort"
)

// CompactStats reports what a Compact call did, JSON-ready for the CLI and
// the coordinator admin endpoint.
type CompactStats struct {
	Keys           int   `json:"keys"`            // live keys indexed after compaction
	Rewritten      int   `json:"rewritten"`       // records copied into fresh segments
	DroppedLegacy  int   `json:"dropped_legacy"`  // legacy-generation records shed
	SegmentsBefore int   `json:"segments_before"` // this writer's segments going in
	SegmentsAfter  int   `json:"segments_after"`  // fresh segments written
	BytesBefore    int64 `json:"bytes_before"`    // their sizes going in
	BytesAfter     int64 `json:"bytes_after"`     // fresh segment bytes
}

// Compact rewrites the store down to its live records: for every key, the
// newest record line is copied byte-identically into fresh segments (with
// sidecars), overwritten duplicates and legacy-generation records (per
// WithLegacyKey) are shed, the index is rebuilt over the new refs, and the
// old segment files are deleted. Only segments this store owns are
// rewritten — every segment for a Disk, the owner's lease for a Shared
// store — and index entries pointing elsewhere are carried unchanged. Runs
// under the writer lock — concurrent Puts block for the duration,
// concurrent Gets stay live (a Get racing the switch-over retries through
// the rebuilt index).
//
// Crash-safe at every step: fresh segments are written and fsynced under
// higher sequence numbers before any old file is deleted, and replay's
// last-write-wins ordering means a directory holding both generations
// reopens to the same mapping.
func (s *segStore[R]) Compact() (CompactStats, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return CompactStats{}, fmt.Errorf("store: closed")
	}
	if err := s.w.seal(false); err != nil {
		return CompactStats{}, err
	}
	var st CompactStats
	st.SegmentsBefore = len(s.w.live)
	for _, p := range s.w.live {
		if fi, err := os.Stat(p); err == nil {
			st.BytesBefore += fi.Size()
		}
	}
	// Snapshot: keys to rewrite (newest version in one of our segments,
	// not legacy) in original write order, plus keys to carry unchanged.
	type entry struct {
		key string
		r   ref
	}
	var rewrite []entry
	kept := map[string]ref{}
	s.idx.each(func(k string, r ref) bool {
		if _, mine := s.w.live[r.seg]; !mine {
			kept[k] = r
			return true
		}
		if s.cfg.legacy != nil && s.cfg.legacy(k) {
			st.DroppedLegacy++
			return true
		}
		rewrite = append(rewrite, entry{k, r})
		return true
	})
	sort.Slice(rewrite, func(i, j int) bool {
		if rewrite[i].r.seg != rewrite[j].r.seg {
			return rewrite[i].r.seg < rewrite[j].r.seg
		}
		return rewrite[i].r.off < rewrite[j].r.off
	})
	// A second writer streams the survivors into fresh segments numbered
	// after ours. Its seal fsyncs: the old files go on the strength of it.
	cw := segWriter{dir: s.w.dir, prefix: s.w.prefix, tab: s.tab, met: &s.met, seq: s.w.seq, live: map[int32]string{}}
	err := func() error {
		for _, e := range rewrite {
			line, err := rawLine(s.tab, e.r)
			if err != nil {
				return err
			}
			nr, err := cw.append(e.key, line, s.SegmentBytes)
			if err != nil {
				return err
			}
			kept[e.key] = nr
			st.BytesAfter += int64(len(line))
		}
		return cw.seal(true)
	}()
	if err != nil {
		cw.seal(false)
		s.w.seq = cw.seq // never reuse a name the failed pass wrote
		return st, err
	}
	st.Keys = len(kept)
	st.Rewritten = len(rewrite)
	st.SegmentsAfter = len(cw.live)
	// Commit: the index switches to the new refs, then the old files go. A
	// Get that resolved an old ref just before the switch either still reads
	// the old bytes (identical record) or gets a stale-ref error and
	// re-resolves.
	s.idx.rebuild(kept)
	for id, p := range s.w.live {
		s.tab.drop(id)
		os.Remove(p)
		os.Remove(sidecarPath(p))
	}
	s.w = cw
	s.met.Load().compacted()
	s.met.Load().records(len(kept))
	return st, nil
}

// rawLine reads one record's exact on-disk bytes, newline restored.
func rawLine(tab *segTable, rf ref) ([]byte, error) {
	sf := tab.get(rf.seg)
	if sf == nil {
		return nil, errStaleRef
	}
	buf := make([]byte, int(rf.llen)+1)
	if err := sf.readAt(buf[:rf.llen], int64(rf.off)); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	buf[rf.llen] = '\n'
	return buf, nil
}
