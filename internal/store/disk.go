package store

// DefaultSegmentBytes is the segment-rotation threshold of a Disk store.
const DefaultSegmentBytes = 4 << 20

// Disk is a disk-persistent Store built for millions of records: an
// append-only log of JSON-lines segment files (seg-00000001.jsonl, ...)
// under a fingerprint-sharded lazy index. The index maps key →
// (segment, offset, length) — a few tens of bytes per record instead of a
// decoded value — and Get decodes on demand through a small bounded LRU of
// hot entries. Each sealed segment carries a sidecar seg-N.idx (written at
// rotation and Close), so a warm reopen loads offsets instead of re-parsing
// JSON; segments without a valid sidecar replay concurrently, and a
// replayed sealed segment gets its sidecar rewritten so the next open is
// warm. Within and across segments the last write for a key wins; a crash
// can at worst lose the final, partially written line — detected and
// dropped at replay (see Dropped).
//
// The on-disk record format is unchanged from the first Disk generation:
// existing store directories keep serving with no key changes, and
// directories written by this version replay fine without their sidecars.
//
// Values round-trip through encoding/json, so R must marshal losslessly
// (cluster.Result does: integer counts, nanosecond time.Durations, and
// float64 shares/ratios, which Go's JSON encoder emits with shortest
// round-trip precision). All methods are safe for concurrent use. The
// SegmentBytes field is the rotation threshold (default
// DefaultSegmentBytes); set it before the first Put.
type Disk[R any] struct {
	segStore[R]
}

// OpenDisk opens (creating if needed) a disk store rooted at dir and builds
// its index: sidecar-indexed segments load without touching record bytes,
// the rest replay concurrently (line parse errors — the torn tail of a
// crashed process — are skipped and counted, never fatal). A missing
// directory is created.
//
// The directory is single-writer: OpenDisk takes an exclusive flock on
// dir/.lock (released by Close, or automatically when the process dies).
// Every Shared owner holds that lock shared, so OpenDisk fails fast beside a
// live Disk store or Shared fleet instead of interleaving segment writes,
// serving a stale index, or compacting away an owner's active lease. To
// share a live store across processes, submit jobs to the server that holds
// it, or use OpenShared's per-owner leases.
func OpenDisk[R any](dir string, opts ...Option) (*Disk[R], error) {
	d := &Disk[R]{}
	if _, err := d.open(dir, "", opts); err != nil {
		return nil, err
	}
	return d, nil
}
