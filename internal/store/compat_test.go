package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/golden is a store directory written by an earlier build of this
// package and committed as-is, so a refactor of the writer or the replay
// path cannot silently change how existing directories reopen. It holds:
//
//   - seg-00000001 and seg-00000002: Disk segments sealed with sidecars
//     (keys a0..a5, a1 overwritten to 101);
//   - seg-w1-00000001: owner w1's sealed lease (w0..w2, a2 overwritten to
//     102), with its sidecar;
//   - seg-00000003: a crashed Disk writer's active segment, no sidecar:
//     t0, t1, an a3 overwrite to 103, one unparsable line and a torn,
//     newline-less tail.
//
// Payloads are pay(Ranks), so the expected values are listed by Ranks.
var goldenKeys = []string{"a0", "a1", "a2", "a3", "a4", "a5", "t0", "t1", "w0", "w1", "w2"}

func goldenWant(a2 int) map[string]int {
	return map[string]int{
		"a0": 0, "a1": 101, "a2": a2, "a3": 103, "a4": 4, "a5": 5,
		"t0": 20, "t1": 21, "w0": 10, "w1": 11, "w2": 12,
	}
}

// goldenCopy copies the fixture into a fresh directory: opening a store
// rewrites missing sidecars and takes lock files, and the fixture must stay
// byte-for-byte as committed.
func goldenCopy(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "golden")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

type reopened interface {
	Keys() []string
	Get(key string) (payload, bool)
	Replayed() int
	Dropped() int
	Close() error
}

func TestGoldenStoreReopens(t *testing.T) {
	cases := []struct {
		name string
		open func(dir string) (reopened, error)
		// a2 is the value the reopened index serves for the key written
		// both in seg-00000001 and in w1's lease. Owner w1 registers its own
		// lease before tailing the plain segments, so the plain record is
		// the later one in its index; everyone else sees w1's overwrite.
		a2 int
		// Only Disk and w1's own replay count the torn tail as dropped; a
		// foreign reader leaves it for the writer to finish.
		dropped int
	}{
		{"disk", func(d string) (reopened, error) { return OpenDisk[payload](d) }, 102, 2},
		{"shared-own", func(d string) (reopened, error) { return OpenShared[payload](d, "w1") }, 2, 1},
		{"shared-new", func(d string) (reopened, error) { return OpenShared[payload](d, "w2") }, 102, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.open(goldenCopy(t))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Keys(); !reflect.DeepEqual(got, goldenKeys) {
				t.Fatalf("Keys = %v, want %v", got, goldenKeys)
			}
			for k, want := range goldenWant(c.a2) {
				if v, ok := s.Get(k); !ok || v != pay(want) {
					t.Errorf("Get(%s) = %v, %v; want pay(%d)", k, v, ok, want)
				}
			}
			// Only seg-00000003's four complete lines are parsed: every
			// sealed segment loads from its sidecar.
			if s.Replayed() != 4 {
				t.Errorf("Replayed = %d, want 4", s.Replayed())
			}
			if s.Dropped() != c.dropped {
				t.Errorf("Dropped = %d, want %d", s.Dropped(), c.dropped)
			}
		})
	}
}

// A Disk store owns its whole directory, including every Shared owner's
// lease, so it must not open beside a live Shared writer: a Disk Compact
// there once treated the owner's active segment as superseded and deleted
// it, losing the owner's acknowledged Puts.
func TestDiskRefusedBesideLiveShared(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShared[payload](dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Put(fpKey(i), pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := OpenDisk[payload](dir); err == nil {
		t.Error("OpenDisk beside a live Shared owner must fail")
		if _, err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	for i := 10; i < 20; i++ {
		if err := w.Put(fpKey(i), pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatalf("OpenDisk after the owner closed: %v", err)
	}
	defer r.Close()
	missing := 0
	for i := 0; i < 20; i++ {
		if v, ok := r.Get(fpKey(i)); !ok || v != pay(i) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of 20 acknowledged Puts missing after reopen", missing)
	}
	// The lock works the other way too: no Shared owner joins a directory
	// a Disk store holds.
	if s, err := OpenShared[payload](dir, "w2"); err == nil {
		s.Close()
		t.Fatal("OpenShared beside a live Disk store must fail")
	}
}
