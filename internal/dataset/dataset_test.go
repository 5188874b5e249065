package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// dist is the Cα distance between two points.
func dist(a, b [3]float32) float32 {
	dx := float64(a[0] - b[0])
	dy := float64(a[1] - b[1])
	dz := float64(a[2] - b[2])
	return float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
}

func TestSampleDeterminism(t *testing.T) {
	g := NewGenerator(1)
	a := g.Sample(5)
	b := g.Sample(5)
	if len(a.Seq) != len(b.Seq) {
		t.Fatal("length differs")
	}
	for i := range a.Seq {
		if a.Seq[i] != b.Seq[i] {
			t.Fatal("sequence differs across calls")
		}
	}
	c := NewGenerator(2).Sample(5)
	same := len(a.Seq) == len(c.Seq)
	if same {
		identical := true
		for i := range a.Seq {
			if a.Seq[i] != c.Seq[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical samples")
		}
	}
}

func TestSampleGeometry(t *testing.T) {
	g := NewGenerator(3)
	for i := 0; i < 20; i++ {
		s := g.Sample(i)
		if len(s.Seq) < g.MinLen || len(s.Seq) > g.MaxLen {
			t.Fatalf("sample %d length %d out of [%d,%d]", i, len(s.Seq), g.MinLen, g.MaxLen)
		}
		if len(s.MSA) != g.MSADepth {
			t.Fatalf("MSA depth %d", len(s.MSA))
		}
		if len(s.Coords) != len(s.Seq) {
			t.Fatal("coords length mismatch")
		}
		for j := range s.MSA[0] {
			if s.MSA[0][j] != s.Seq[j] {
				t.Fatal("first MSA row must equal the target sequence")
			}
		}
	}
}

func TestFoldSequenceDeterministicAndChainLike(t *testing.T) {
	seq := []int{3, 7, 1, 9, 0, 12, 5, 5, 18, 2}
	a := FoldSequence(seq)
	b := FoldSequence(seq)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("folding is not deterministic")
		}
	}
	// Consecutive Cα atoms must be ~3.8 Å apart (chain constraint).
	for i := 1; i < len(a); i++ {
		d := float64(dist(a[i], a[i-1]))
		if math.Abs(d-3.8) > 1e-3 {
			t.Fatalf("bond %d length %v, want 3.8", i, d)
		}
	}
}

func TestFoldSimilarSequencesFoldSimilarly(t *testing.T) {
	seq := make([]int, 50)
	for i := range seq {
		seq[i] = (i * 7) % 20
	}
	mut := append([]int(nil), seq...)
	mut[49] = (mut[49] + 1) % 20 // mutate the final residue only
	a, b := FoldSequence(seq), FoldSequence(mut)
	// Prefix coordinates before the mutation window must agree.
	for i := 0; i < 45; i++ {
		if dist(a[i], b[i]) > 1e-3 {
			t.Fatalf("prefix diverged at %d", i)
		}
	}
}

func TestCropExactLength(t *testing.T) {
	g := NewGenerator(4)
	s := g.Sample(0)
	rng := rand.New(rand.NewSource(1))
	for _, crop := range []int{8, 16, len(s.Seq), len(s.Seq) + 10} {
		c := s.Crop(crop, rng)
		if len(c.Seq) != crop || len(c.Coords) != crop {
			t.Fatalf("crop to %d gave %d", crop, len(c.Seq))
		}
		for _, row := range c.MSA {
			if len(row) != crop {
				t.Fatal("MSA row not cropped")
			}
		}
		if c.SeqLen != s.SeqLen || c.MSASize != s.MSASize {
			t.Fatal("crop must preserve original geometry metadata")
		}
	}
}

func TestCropWindowIsContiguousProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewGenerator(seed)
		s := g.Sample(0)
		rng := rand.New(rand.NewSource(seed))
		crop := 10
		c := s.Crop(crop, rng)
		// The cropped sequence must appear as a contiguous window of s.Seq.
		for start := 0; start+crop <= len(s.Seq); start++ {
			match := true
			for i := 0; i < crop; i++ {
				if s.Seq[start+i] != c.Seq[i] {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPrepTimeDistributionMatchesFigure4(t *testing.T) {
	g := NewGenerator(8)
	m := DefaultPrepTimeModel()
	times := SortedPrepTimes(g, m, 2000, 9)
	minT, maxT := times[0], times[len(times)-1]
	med := Quantile(times, 0.5)
	p90 := Quantile(times, 0.9)
	// Figure 4: range 0.1..100 s (log scale), heavy right tail.
	if minT < 0.04 || minT > 1 {
		t.Fatalf("min prep time %v outside Figure-4 range", minT)
	}
	if maxT < 10 || maxT > 130 {
		t.Fatalf("max prep time %v outside Figure-4 range", maxT)
	}
	if med > 3 {
		t.Fatalf("median %v too slow", med)
	}
	if p90 < med*2 {
		t.Fatalf("distribution lacks the heavy tail: median %v p90 %v", med, p90)
	}
	// Spans at least two orders of magnitude.
	if maxT/minT < 100 {
		t.Fatalf("range %v-%v spans less than 2 decades", minT, maxT)
	}
}

func TestPrepTimeDeterministic(t *testing.T) {
	g := NewGenerator(10)
	m := DefaultPrepTimeModel()
	s := g.Sample(3)
	if m.Duration(s, 1) != m.Duration(s, 1) {
		t.Fatal("prep time must be deterministic")
	}
	if m.Duration(s, 1) == m.Duration(s, 2) {
		t.Fatal("different seeds should vary prep time")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	// Out-of-range q clamps to the extremes instead of indexing out of
	// bounds (q=1.5 used to panic; q=-0.1 read a negative index).
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{-0.1, 1}, {0, 1}, {0.5, 3}, {1, 5}, {1.5, 5},
	} {
		if got := Quantile(s, tc.q); got != tc.want {
			t.Errorf("Quantile(s, %g) = %g; want %g", tc.q, got, tc.want)
		}
	}
	if got := Quantile(s, math.NaN()); got != 1 {
		t.Errorf("Quantile(s, NaN) = %g; want the minimum", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}
