package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// payload mimics the shape of cluster.Result: durations and ints, which must
// round-trip through JSON byte-exactly.
type payload struct {
	Median time.Duration
	Mean   time.Duration
	Ranks  int
}

func pay(i int) payload {
	return payload{Median: time.Duration(i) * 1234567, Mean: time.Duration(i) * 7654321, Ranks: i}
}

func TestMemStore(t *testing.T) {
	s := NewMem[payload]()
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store must miss")
	}
	if err := s.Put("b", pay(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", pay(1)); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("a"); !ok || v != pay(1) {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if err := s.Put("a", pay(9)); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("a"); v != pay(9) {
		t.Fatal("Put must overwrite")
	}
	if !reflect.DeepEqual(s.Keys(), []string{"a", "b"}) || s.Len() != 2 {
		t.Fatalf("Keys = %v, Len = %d", s.Keys(), s.Len())
	}
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := d.Put(fmt.Sprintf("key-%02d", i), pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Put("key-05", pay(500)) // overwrite: last write must win after reload
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("late", pay(0)); err == nil {
		t.Fatal("Put after Close must fail")
	}

	r, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 20 || r.Dropped() != 0 {
		t.Fatalf("reloaded Len = %d (dropped %d), want 20/0", r.Len(), r.Dropped())
	}
	for i := 0; i < 20; i++ {
		want := pay(i)
		if i == 5 {
			want = pay(500)
		}
		if v, ok := r.Get(fmt.Sprintf("key-%02d", i)); !ok || v != want {
			t.Fatalf("key-%02d = %v, %v (want %v)", i, v, ok, want)
		}
	}
	keys := r.Keys()
	if len(keys) != 20 || keys[0] != "key-00" || keys[19] != "key-19" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestDiskSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SegmentBytes = 256 // force rotation every few records
	for i := 0; i < 50; i++ {
		if err := d.Put(fmt.Sprintf("key-%02d", i), pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	r, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 50 {
		t.Fatalf("reloaded %d keys across %d segments, want 50", r.Len(), len(segs))
	}
	// New writes land in a fresh segment numbered after the newest one.
	if err := r.Put("fresh", pay(1)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	after, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(after) != len(segs)+1 {
		t.Fatalf("reopen+Put must start a new segment: %d -> %d files", len(segs), len(after))
	}
}

func TestDiskToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("good", pay(1))
	d.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	// Simulate a crash mid-append: a partial JSON line at the log tail.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"k":"torn","v":{"Med`)
	f.Close()

	r, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Dropped() != 1 {
		t.Fatalf("Len = %d, Dropped = %d; want 1 key, 1 dropped line", r.Len(), r.Dropped())
	}
	if v, ok := r.Get("good"); !ok || v != pay(1) {
		t.Fatal("intact records must survive a torn tail")
	}
}

// A failed append may tear the segment tail; the next Put must rotate to a
// fresh segment rather than glue its line onto the partial one (which would
// corrupt both records on reload).
func TestDiskRotatesAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("before", pay(1)); err != nil {
		t.Fatal(err)
	}
	// Force a write failure: swap the active segment for a read-only handle
	// (white-box stand-in for a short write on a full disk).
	good := d.w.f
	ro, err := os.Open(good.Name())
	if err != nil {
		t.Fatal(err)
	}
	d.w.f = ro
	if err := d.Put("lost", pay(2)); err == nil {
		t.Fatal("write to read-only segment must fail")
	}
	good.Close() // rotation closes ro itself

	if err := d.Put("after", pay(3)); err != nil {
		t.Fatalf("Put after a failed write must rotate and succeed: %v", err)
	}
	d.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 2 {
		t.Fatalf("expected rotation to a second segment, got %v", segs)
	}
	r, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Get("before"); !ok || v != pay(1) {
		t.Fatal("pre-failure record lost")
	}
	if v, ok := r.Get("after"); !ok || v != pay(3) {
		t.Fatal("post-failure record lost")
	}
	if _, ok := r.Get("lost"); ok {
		t.Fatal("failed Put must not resurrect on reload")
	}
}

// The store directory is single-writer: a second open must fail fast
// instead of interleaving segment writes with the holder.
func TestDiskDirectoryIsSingleWriter(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk[payload](dir); err == nil {
		t.Fatal("second OpenDisk on a held directory must fail")
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatalf("open after Close must succeed: %v", err)
	}
	d2.Close()
}

func TestDiskRejectsEmptyKey(t *testing.T) {
	d, err := OpenDisk[payload](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("", pay(0)); err == nil {
		t.Fatal("empty key must be rejected")
	}
}

func TestDiskConcurrentPutGet(t *testing.T) {
	d, err := OpenDisk[payload](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d-%d", w, i)
				if err := d.Put(key, pay(i)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := d.Get(key); !ok || v != pay(i) {
					t.Errorf("read own write %s: %v, %v", key, v, ok)
					return
				}
				d.Get(fmt.Sprintf("key-%d-%d", (w+1)%8, i)) // racing cross-reads
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != 8*50 {
		t.Fatalf("Len = %d, want %d", d.Len(), 8*50)
	}
}
