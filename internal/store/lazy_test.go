package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fpKey mints a current-format fingerprint key deterministically.
func fpKey(i int) string {
	return fmt.Sprintf("v3:%032x", i)
}

func isLegacyTest(k string) bool { return strings.HasPrefix(k, "v1:") }

// --- ikey / index internals -------------------------------------------------

func TestIkeyRoundTrip(t *testing.T) {
	cases := []string{
		"v3:0123456789abcdef0123456789abcdef",             // fingerprint
		"v0:0123456789abcdef0123456789abcdef",             // version 0 is canonical
		"v255:" + strings.Repeat("ab", 16),                // max version
		"k", "short-key", strings.Repeat("x", ikeyInline), // raw inline
	}
	for _, key := range cases {
		ik, ok := makeIkey(key)
		if !ok {
			t.Fatalf("makeIkey(%q) rejected an inline-able key", key)
		}
		if got := ik.String(); got != key {
			t.Fatalf("round trip %q -> %q", key, got)
		}
	}
	for _, key := range []string{
		strings.Repeat("x", ikeyInline+1),     // too long
		"v3:0123456789ABCDEF0123456789ABCDEF", // uppercase hex is not a fingerprint, and 35 > inline
		// Leading-zero versions are distinct keys that would reconstruct to
		// the canonical spelling — inlining them would alias "v5:X"/"v0:X".
		"v05:0123456789abcdef0123456789abcdef",
		"v00:0123456789abcdef0123456789abcdef",
		"",
	} {
		if _, ok := makeIkey(key); ok {
			t.Fatalf("makeIkey(%q) should overflow", key)
		}
	}
	// Near-fingerprint shapes must not be mis-parsed as one.
	for _, key := range []string{
		"w3:0123456789abcdef0123456789abcdef",
		"v:0123456789abcdef0123456789abcdef",
		"v3:0123456789abcdef0123456789abcde", // 31 hex digits: short, raw-inline is fine
	} {
		ik, ok := makeIkey(key)
		if ok && ik.kind == ikeyHex {
			t.Fatalf("%q parsed as fingerprint", key)
		}
		if ok && ik.String() != key {
			t.Fatalf("round trip %q -> %q", key, ik.String())
		}
	}
}

// TestNonCanonicalVersionKeysStayDistinct pins that "v05:X" and "v5:X" are
// different keys end to end: the non-canonical spelling must not alias the
// canonical one through the inline-ikey encoding.
func TestNonCanonicalVersionKeysStayDistinct(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hex := "0123456789abcdef0123456789abcdef"
	if err := d.Put("v5:"+hex, payload{Ranks: 5}); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("v05:"+hex, payload{Ranks: 105}); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get("v5:" + hex); !ok || got.Ranks != 5 {
		t.Fatalf("v5: got %+v ok=%v", got, ok)
	}
	if got, ok := d.Get("v05:" + hex); !ok || got.Ranks != 105 {
		t.Fatalf("v05: got %+v ok=%v", got, ok)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d, want 2 distinct keys", d.Len())
	}
}

func TestIndexOverflowKeys(t *testing.T) {
	long := strings.Repeat("long-key-", 10)
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := payload{Ranks: 7}
	if err := d.Put(long, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get(long); !ok || got != want {
		t.Fatalf("overflow key: got %+v ok=%v", got, ok)
	}
	if keys := d.Keys(); len(keys) != 1 || keys[0] != long {
		t.Fatalf("keys = %v", keys)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU[int](2)
	c.add("a", 1)
	c.add("b", 2)
	c.get("a") // a is now most recent
	c.add("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatal("a should survive")
	}
	if v, ok := c.get("c"); !ok || v != 3 {
		t.Fatal("c should be present")
	}
}

// --- warm opens and sidecar faults -----------------------------------------

// TestDiskWarmReopenParsesNoJSON pins the sidecar fast path: a cleanly closed
// store reopens without parsing a single record line.
func TestDiskWarmReopenParsesNoJSON(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Put(fpKey(i), payload{Ranks: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Replayed(); got != 0 {
		t.Fatalf("warm reopen parsed %d lines, want 0", got)
	}
	if d2.Len() != 50 {
		t.Fatalf("len = %d", d2.Len())
	}
	for i := 0; i < 50; i++ {
		if got, ok := d2.Get(fpKey(i)); !ok || got.Ranks != i {
			t.Fatalf("key %d: got %+v ok=%v", i, got, ok)
		}
	}
}

// TestDiskColdReopenSelfHealsSidecar pins that a replay writes the sidecar it
// was missing, making the open after next warm.
func TestDiskColdReopenSelfHealsSidecar(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Put(fpKey(i), payload{Ranks: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, idx := range sidecarsIn(t, dir) {
		if err := os.Remove(idx); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Replayed() != 10 {
		t.Fatalf("cold reopen parsed %d lines, want 10", d2.Replayed())
	}
	d2.Close()
	d3, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.Replayed() != 0 {
		t.Fatalf("self-healed reopen parsed %d lines, want 0", d3.Replayed())
	}
}

func sidecarsIn(t *testing.T, dir string) []string {
	t.Helper()
	idx, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if err != nil || len(idx) == 0 {
		t.Fatalf("no sidecars in %s (err=%v)", dir, err)
	}
	return idx
}

// sidecarFaultTest seeds a store, corrupts its sidecars with mangle, reopens,
// and requires every record to still be served correctly (fault → full
// replay, never wrong data).
func sidecarFaultTest(t *testing.T, mangle func(t *testing.T, idxPath string)) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := d.Put(fpKey(i), payload{Ranks: i, Mean: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, idx := range sidecarsIn(t, dir) {
		mangle(t, idx)
	}
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != n {
		t.Fatalf("len = %d, want %d", d2.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := d2.Get(fpKey(i))
		if !ok {
			t.Fatalf("key %d missing after sidecar fault", i)
		}
		if got.Ranks != i {
			t.Fatalf("key %d served WRONG value %+v", i, got)
		}
	}
}

func TestSidecarTornTruncated(t *testing.T) {
	sidecarFaultTest(t, func(t *testing.T, idx string) {
		raw, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(idx, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSidecarBitFlip(t *testing.T) {
	sidecarFaultTest(t, func(t *testing.T, idx string) {
		raw, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)*3/4] ^= 0x40 // flip a bit deep in the entry body
		if err := os.WriteFile(idx, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSidecarStaleAfterSegmentShrank(t *testing.T) {
	// A sidecar describing more bytes than the segment holds (the segment
	// was truncated out-of-band) must be rejected, not serve dangling refs.
	// The truncated-away records are gone — the pin is that every surviving
	// key serves its correct value and none serves garbage.
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := d.Put(fpKey(i), payload{Ranks: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, idx := range sidecarsIn(t, dir) {
		seg := strings.TrimSuffix(idx, ".idx") + ".jsonl"
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, st.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() >= n || d2.Len() == 0 {
		t.Fatalf("len = %d, want a proper subset of %d", d2.Len(), n)
	}
	found := 0
	for i := 0; i < n; i++ {
		if got, ok := d2.Get(fpKey(i)); ok {
			found++
			if got.Ranks != i {
				t.Fatalf("key %d served WRONG value %+v from stale sidecar", i, got)
			}
		}
	}
	if found != d2.Len() {
		t.Fatalf("index claims %d keys but served %d", d2.Len(), found)
	}
}

// TestSidecarForgedOffsetsNeverServeWrongRecord pins the last line of
// defense: a sidecar that passes every structural check but lies about which
// key lives where must not make Get return another record's value.
func TestSidecarForgedOffsetsNeverServeWrongRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(fpKey(1), payload{Ranks: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(fpKey(2), payload{Ranks: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	idx := sidecarsIn(t, dir)[0]
	raw, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two keys in the entry body and re-sign the checksum, forging
	// a structurally valid sidecar with crossed offsets.
	nl := bytes.IndexByte(raw, '\n')
	body := string(raw[nl+1:])
	body = strings.ReplaceAll(body, fpKey(1), "§TMP§")
	body = strings.ReplaceAll(body, fpKey(2), fpKey(1))
	body = strings.ReplaceAll(body, "§TMP§", fpKey(2))
	seg := strings.TrimSuffix(idx, ".idx") + ".jsonl"
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeForgedSidecar(idx, st.Size(), body); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, ok := d2.Get(fpKey(1)); ok && got.Ranks != 1 {
		t.Fatalf("forged sidecar served WRONG value %+v for key 1", got)
	}
	if got, ok := d2.Get(fpKey(2)); ok && got.Ranks != 2 {
		t.Fatalf("forged sidecar served WRONG value %+v for key 2", got)
	}
}

func writeForgedSidecar(path string, segSize int64, body string) error {
	hdr := fmt.Sprintf(`{"v":1,"size":%d,"records":%d,"dropped":0,"sum":"%016x"}`,
		segSize, strings.Count(body, "\n"), fnvSum([]byte(body)))
	return os.WriteFile(path, []byte(hdr+"\n"+body), 0o644)
}

// --- arbitrary-length lines -------------------------------------------------

// TestDiskReplaysHugeLines pins the removal of the old 16MB scanner cap:
// record lines far longer than the replay buffer replay fine.
func TestDiskReplaysHugeLines(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[bigPayload](dir)
	if err != nil {
		t.Fatal(err)
	}
	size := 1 << 20 // well past scanSegment's 256KB buffer
	if !testing.Short() {
		size = 17 << 20 // past the old bufio.Scanner cap
	}
	big := bigPayload{Blob: strings.Repeat("x", size)}
	if err := d.Put(fpKey(1), big); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(fpKey(2), payloadSmall()); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove sidecars to force the scan path through the huge line.
	for _, idx := range sidecarsIn(t, dir) {
		os.Remove(idx)
	}
	d2, err := OpenDisk[bigPayload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Dropped() != 0 {
		t.Fatalf("dropped %d lines replaying a long record", d2.Dropped())
	}
	if got, ok := d2.Get(fpKey(1)); !ok || len(got.Blob) != size {
		t.Fatalf("huge record lost: ok=%v len=%d", ok, len(got.Blob))
	}
	if got, ok := d2.Get(fpKey(2)); !ok || got.Blob != "small" {
		t.Fatalf("record after huge line lost: ok=%v %+v", ok, got)
	}
}

type bigPayload struct {
	Blob string
}

func payloadSmall() bigPayload { return bigPayload{Blob: "small"} }

// --- legacy accounting ------------------------------------------------------

func TestDiskLegacyCounting(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir, WithLegacyKey(isLegacyTest))
	if err != nil {
		t.Fatal(err)
	}
	legacyKey := "v1:" + strings.Repeat("ab", 16)
	if err := d.Put(legacyKey, payload{Ranks: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(fpKey(1), payload{Ranks: 2}); err != nil {
		t.Fatal(err)
	}
	if d.Legacy() != 1 {
		t.Fatalf("legacy = %d, want 1", d.Legacy())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Both replay paths — warm (sidecar) and cold — must count the same.
	for pass, cold := range []bool{false, true} {
		if cold {
			for _, idx := range sidecarsIn(t, dir) {
				os.Remove(idx)
			}
		}
		d2, err := OpenDisk[payload](dir, WithLegacyKey(isLegacyTest))
		if err != nil {
			t.Fatal(err)
		}
		if d2.Legacy() != 1 {
			t.Fatalf("pass %d: legacy = %d after reopen, want 1", pass, d2.Legacy())
		}
		d2.Close()
	}
}

// --- compaction -------------------------------------------------------------

func TestDiskCompactShedsOverwritesAndLegacy(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir, WithLegacyKey(isLegacyTest))
	if err != nil {
		t.Fatal(err)
	}
	d.SegmentBytes = 256 // force several segments
	legacyKey := "v1:" + strings.Repeat("cd", 16)
	if err := d.Put(legacyKey, payload{Ranks: 99}); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for round := 0; round < 3; round++ { // overwrite every key 3 times
		for i := 0; i < n; i++ {
			if err := d.Put(fpKey(i), payload{Ranks: i, Mean: int64AsDuration(round)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := segmentCount(t, dir)
	st, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rewritten != n {
		t.Fatalf("rewritten = %d, want %d", st.Rewritten, n)
	}
	if st.DroppedLegacy != 1 {
		t.Fatalf("dropped_legacy = %d, want 1", st.DroppedLegacy)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", st.BytesBefore, st.BytesAfter)
	}
	if after := segmentCount(t, dir); after >= before {
		t.Fatalf("segments %d -> %d", before, after)
	}
	if d.Legacy() != 0 {
		t.Fatalf("legacy = %d after compact, want 0", d.Legacy())
	}
	// Live reads keep working post-compact, and the legacy key is gone.
	if _, ok := d.Get(legacyKey); ok {
		t.Fatal("legacy key survived compaction")
	}
	for i := 0; i < n; i++ {
		got, ok := d.Get(fpKey(i))
		if !ok || got.Mean != int64AsDuration(2) {
			t.Fatalf("key %d after compact: got %+v ok=%v", i, got, ok)
		}
	}
	// Puts and reopen keep working after compaction.
	if err := d.Put(fpKey(n), payload{Ranks: n}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk[payload](dir, WithLegacyKey(isLegacyTest))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != n+1 || d2.Legacy() != 0 {
		t.Fatalf("after reopen: len=%d legacy=%d", d2.Len(), d2.Legacy())
	}
	for i := 0; i <= n; i++ {
		if _, ok := d2.Get(fpKey(i)); !ok {
			t.Fatalf("key %d missing after compact+reopen", i)
		}
	}
}

func int64AsDuration(round int) time.Duration { return time.Duration(round) * 1000 }

func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func TestSharedCompactLeavesForeignSegmentsAlone(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared[payload](dir, "a")
	if err != nil {
		t.Fatal(err)
	}
	a.SegmentBytes = 128
	for i := 0; i < 10; i++ { // a's records, overwritten once
		for r := 0; r < 2; r++ {
			if err := a.Put(fpKey(i), payload{Ranks: i + r*100}); err != nil {
				t.Fatal(err)
			}
		}
	}
	b, err := OpenShared[payload](dir, "b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := b.Put(fpKey(i), payload{Ranks: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	foreignBefore, _ := filepath.Glob(filepath.Join(dir, "seg-b-*.jsonl"))
	st, err := a.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rewritten != 10 {
		t.Fatalf("rewritten = %d, want 10 (a's records only)", st.Rewritten)
	}
	foreignAfter, _ := filepath.Glob(filepath.Join(dir, "seg-b-*.jsonl"))
	if len(foreignAfter) != len(foreignBefore) {
		t.Fatalf("compaction touched foreign segments: %d -> %d", len(foreignBefore), len(foreignAfter))
	}
	// a still serves both its own (rewritten) and b's (untouched) records.
	for i := 0; i < 15; i++ {
		got, ok := a.Get(fpKey(i))
		if !ok {
			t.Fatalf("key %d missing after shared compact", i)
		}
		want := i
		if i < 10 {
			want = i + 100
		}
		if got.Ranks != want {
			t.Fatalf("key %d: got %d want %d", i, got.Ranks, want)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- stress -----------------------------------------------------------------

// TestStoreStressConcurrent hammers one Disk store with concurrent Put, Get
// and Compact, then reopens and verifies every key. Run under -race in CI.
func TestStoreStressConcurrent(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir, WithCache(64), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	d.SegmentBytes = 4 << 10
	const keys = 200
	iters := 30
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i := w; i < keys; i += 4 {
					if err := d.Put(fpKey(i), payload{Ranks: i}); err != nil {
						t.Error(err)
						return
					}
					if got, ok := d.Get(fpKey(i)); !ok || got.Ranks != i {
						t.Errorf("key %d: got %+v ok=%v", i, got, ok)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < 5; it++ {
			if _, err := d.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != keys {
		t.Fatalf("len = %d after stress+reopen, want %d", d2.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		if got, ok := d2.Get(fpKey(i)); !ok || got.Ranks != i {
			t.Fatalf("key %d after stress+reopen: got %+v ok=%v", i, got, ok)
		}
	}
}

// TestCompactNeverLosesAcknowledgedPut pins the Put/Compact publication
// order: a Put that has returned success must be visible to a concurrent
// Compact's index snapshot, or compaction deletes the only segment holding
// it. Unique keys (never re-Put) make a lost write impossible to mask.
func TestCompactNeverLosesAcknowledgedPut(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir, WithCache(32), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	d.SegmentBytes = 2 << 10
	const writers, perWriter = 4, 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := d.Put(fpKey(w*perWriter+i), payload{Ranks: w*perWriter + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-compactorDone
	if t.Failed() {
		return
	}
	for i := 0; i < writers*perWriter; i++ {
		if got, ok := d.Get(fpKey(i)); !ok || got.Ranks != i {
			t.Fatalf("acknowledged key %d lost to compaction: got %+v ok=%v", i, got, ok)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < writers*perWriter; i++ {
		if got, ok := d2.Get(fpKey(i)); !ok || got.Ranks != i {
			t.Fatalf("acknowledged key %d missing after reopen: got %+v ok=%v", i, got, ok)
		}
	}
}

// A compaction that fails part-way has already written fresh segments under
// the next sequence numbers. The next Put must rotate past them: appending
// to one of those files would index its record at the wrong offset and lose
// it on reopen.
func TestFailedCompactDoesNotReuseSegmentNames(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SegmentBytes = 1 // one record per segment: k0 in id 0, k1 in id 1
	if err := d.Put("k0", pay(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("k1", pay(1)); err != nil {
		t.Fatal(err)
	}
	// White-box fault: forget k1's segment so the compaction fails on it
	// after copying k0 into a fresh segment.
	d.tab.drop(1)
	if _, err := d.Compact(); err == nil {
		t.Fatal("Compact over a vanished segment must fail")
	}
	if err := d.Put("k2", pay(123456)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k, want := range map[string]payload{"k0": pay(0), "k1": pay(1), "k2": pay(123456)} {
		if v, ok := r.Get(k); !ok || v != want {
			t.Errorf("Get(%s) after reopen = %v, %v; want %v", k, v, ok, want)
		}
	}
}

// --- format compatibility ---------------------------------------------------

// TestDiskOpensFirstGenerationLayout pins byte-format compatibility with
// store directories written before sidecars existed: bare seg-N.jsonl files,
// no .idx, replayed in full and served identically.
func TestDiskOpensFirstGenerationLayout(t *testing.T) {
	dir := t.TempDir()
	lines := []string{
		`{"k":"` + fpKey(1) + `","v":{"Median":5,"Mean":7,"Ranks":16}}`,
		`{"k":"` + fpKey(2) + `","v":{"Median":1,"Mean":2,"Ranks":8}}`,
		`{"k":"` + fpKey(1) + `","v":{"Median":9,"Mean":9,"Ranks":32}}`, // overwrite
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.jsonl"),
		[]byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != 2 || d.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", d.Len(), d.Dropped())
	}
	if got, ok := d.Get(fpKey(1)); !ok || got.Ranks != 32 {
		t.Fatalf("last write should win: %+v ok=%v", got, ok)
	}
	if got, ok := d.Get(fpKey(2)); !ok || got.Ranks != 8 {
		t.Fatalf("key 2: %+v ok=%v", got, ok)
	}
}
