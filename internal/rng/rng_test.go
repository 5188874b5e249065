package rng

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var _ rand.Source64 = (*Source)(nil)

// edgeSeeds are the seeds where math/rand's normalization branches: zero
// (replaced by 89482311), negatives, multiples of the modulus and the int64
// extremes.
var edgeSeeds = []int64{
	0, -1, 1, lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, lcgMod + 1,
	math.MinInt64, math.MaxInt64, 89482311,
}

// TestUint64MatchesMathRand compares raw source output across the lazy-fill
// boundary (draw 334) and two full register turns.
func TestUint64MatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for n := 0; n < 3*rngLen; n++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, n, g, w)
			}
		}
	}
}

// TestReseedMidFill reseeds at every phase of the fill — before it, inside
// the tap-fresh window, between the tap and feed windows, and after — and
// checks the stream restarts exactly.
func TestReseedMidFill(t *testing.T) {
	for _, before := range []int{0, 1, 100, rngTap - 1, rngTap, fillDraws - 1, fillDraws, fillDraws + 1, 1000} {
		got, want := New(5), rand.NewSource(5).(rand.Source64)
		for n := 0; n < before; n++ {
			got.Uint64()
			want.Uint64()
		}
		got.Seed(-77)
		want.Seed(-77)
		for n := 0; n < 2*rngLen; n++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("reseed after %d draws, draw %d: got %d, want %d", before, n, g, w)
			}
		}
	}
}

// runOps drives a Rand through an op sequence read from ops and returns
// every value it produced, bit-exact. Only the first maxOps bytes count,
// which bounds one run's cost.
func runOps(r *rand.Rand, ops []byte) []uint64 {
	const maxOps = 512
	if len(ops) > maxOps {
		ops = ops[:maxOps]
	}
	var out []uint64
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		arg := 1
		if i+1 < len(ops) {
			arg += int(ops[i+1])
		}
		switch op % 9 {
		case 0:
			out = append(out, uint64(r.Int63()))
		case 1:
			out = append(out, r.Uint64())
		case 2:
			out = append(out, math.Float64bits(r.Float64()))
		case 3:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case 4:
			out = append(out, math.Float64bits(r.ExpFloat64()))
		case 5:
			out = append(out, uint64(r.Intn(arg*arg*arg)))
			i++
		case 6:
			out = append(out, uint64(r.Int31n(int32(arg))))
			i++
		case 7:
			// A burst, to carry short op sequences past the fill.
			for n := 0; n < 2*arg; n++ {
				out = append(out, uint64(r.Int63()))
			}
			i++
		case 8:
			r.Seed(int64(arg)*int64(op) - 1<<40)
			i++
		}
	}
	return out
}

// FuzzSourceMatchesMathRand drives rand.New(rng.New(seed)) and
// rand.New(rand.NewSource(seed)) through the same mixed op sequence, reseeds
// included, and requires identical output.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, -1, lcgMod, -lcgMod, 2 * lcgMod, math.MinInt64, math.MaxInt64, 89482311} {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 9, 6, 200, 7, 100, 8, 3, 7, 255, 0})
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got := runOps(rand.New(New(seed)), ops)
		want := runOps(rand.New(rand.NewSource(seed)), ops)
		if len(got) != len(want) {
			t.Fatalf("output lengths differ: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: value %d differs: got %#x, want %#x", seed, i, got[i], want[i])
			}
		}
	})
}

// TestNoMathRandSourceInProduction fails if non-test code under internal/
// or cmd/ constructs math/rand's source: its Seed costs ~10 µs, which made
// per-index reseeding the simulator's largest cost. Use rng.New instead.
func TestNoMathRandSourceInProduction(t *testing.T) {
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			for _, name := range mathRandNames(file) {
				ast.Inspect(file, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewSource" {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
							t.Errorf("%s: calls %s.NewSource; use rng.New", path, name)
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mathRandNames returns the names a file imports math/rand under.
func mathRandNames(f *ast.File) []string {
	var names []string
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
			name := "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names = append(names, name)
		}
	}
	return names
}

var sink uint64

// BenchmarkSeedAndDraw is the simulator's per-index pattern: reseed, then
// a handful of draws (dataset.PrepTimer) or a few hundred (GeomSampler).
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, draws := range []int{4, 300} {
		b.Run("rng/draws="+strconv.Itoa(draws), func(b *testing.B) {
			s := New(0)
			for i := 0; b.Loop(); i++ {
				s.Seed(int64(i))
				for n := 0; n < draws; n++ {
					sink += s.Uint64()
				}
			}
		})
		b.Run("mathrand/draws="+strconv.Itoa(draws), func(b *testing.B) {
			s := rand.NewSource(0).(rand.Source64)
			for i := 0; b.Loop(); i++ {
				s.Seed(int64(i))
				for n := 0; n < draws; n++ {
					sink += s.Uint64()
				}
			}
		})
	}
}
