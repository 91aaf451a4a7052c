package sketch

import (
	"bytes"
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// exactMoment computes sum over items of count^k.
func exactMoment(freq map[uint64]int64, k float64) float64 {
	s := 0.0
	for _, c := range freq {
		s += math.Pow(float64(c), k)
	}
	return s
}

// zipfStream generates n items from {0..m-1} with Zipf(alpha) frequencies.
func zipfStream(n, m int, alpha float64, seed uint64) []uint64 {
	rng := hash.New(seed)
	cdf := make([]float64, m)
	tot := 0.0
	for i := 0; i < m; i++ {
		tot += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = tot
	}
	out := make([]uint64, n)
	for i := range out {
		u := rng.Float64() * tot
		lo, hi := 0, m-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = uint64(lo)
	}
	return out
}

func TestCountCounter(t *testing.T) {
	m := NewCountMaker()
	s := m.New()
	for i := 0; i < 100; i++ {
		s.Add(uint64(i), 2)
	}
	if got := s.Estimate(); got != 200 {
		t.Fatalf("count = %v, want 200", got)
	}
	if s.Size() != 1 {
		t.Fatalf("counter size = %d, want 1", s.Size())
	}
}

func TestSumCounter(t *testing.T) {
	m := NewSumMaker()
	s := m.New()
	want := int64(0)
	for i := int64(1); i <= 100; i++ {
		s.Add(uint64(i), 3)
		want += 3 * i
	}
	if got := s.Estimate(); got != float64(want) {
		t.Fatalf("sum = %v, want %d", got, want)
	}
}

func TestCounterMerge(t *testing.T) {
	m := NewCountMaker()
	a, b := m.New(), m.New()
	a.Add(1, 5)
	b.Add(2, 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != 12 {
		t.Fatalf("merged count = %v, want 12", a.Estimate())
	}
}

func TestCounterMergeIncompatible(t *testing.T) {
	a := NewCountMaker().New()
	b := NewCountMaker().New() // counters carry no randomness: compatible
	b.Add(1, 4)
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge of two COUNT counters failed: %v", err)
	}
	if a.Estimate() != 4 {
		t.Fatalf("merged count = %v, want 4", a.Estimate())
	}
	c := NewSumMaker().New()
	if err := a.Merge(c); err != ErrIncompatible {
		t.Fatalf("merge COUNT with SUM: err = %v, want ErrIncompatible", err)
	}
}

func TestCountSketchF2Uniform(t *testing.T) {
	m := NewF2Maker(512, 5, hash.New(101))
	s := m.New()
	freq := map[uint64]int64{}
	rng := hash.New(7)
	for i := 0; i < 200000; i++ {
		x := rng.Uint64n(5000)
		s.Add(x, 1)
		freq[x]++
	}
	exact := exactMoment(freq, 2)
	got := s.Estimate()
	if rel := math.Abs(got-exact) / exact; rel > 0.12 {
		t.Fatalf("F2 estimate %v vs exact %v, rel err %v", got, exact, rel)
	}
}

func TestCountSketchF2Zipf(t *testing.T) {
	m := NewF2Maker(512, 5, hash.New(103))
	s := m.New()
	freq := map[uint64]int64{}
	for _, x := range zipfStream(200000, 5000, 1.2, 11) {
		s.Add(x, 1)
		freq[x]++
	}
	exact := exactMoment(freq, 2)
	got := s.Estimate()
	if rel := math.Abs(got-exact) / exact; rel > 0.12 {
		t.Fatalf("F2 estimate %v vs exact %v, rel err %v", got, exact, rel)
	}
}

func TestCountSketchIncrementalEstimateMatchesRecompute(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(107))
	s := m.New().(*CountSketch)
	rng := hash.New(9)
	for i := 0; i < 5000; i++ {
		s.Add(rng.Uint64n(200), int64(rng.Uint64n(3))+1)
	}
	for i := 0; i < m.depth; i++ {
		var f2 float64
		for _, c := range counters(s)[i*m.width : (i+1)*m.width] {
			f2 += float64(c) * float64(c)
		}
		if math.Abs(f2-s.rowF2[i]) > 1e-6*math.Abs(f2) {
			t.Fatalf("row %d incremental F2 %v, recomputed %v", i, s.rowF2[i], f2)
		}
	}
}

func TestCountSketchNegativeWeights(t *testing.T) {
	m := NewF2Maker(256, 5, hash.New(109))
	s := m.New()
	// Insert then delete everything: net frequency zero, F2 must be ~0.
	rng := hash.New(13)
	xs := make([]uint64, 3000)
	for i := range xs {
		xs[i] = rng.Uint64n(500)
		s.Add(xs[i], 1)
	}
	for _, x := range xs {
		s.Add(x, -1)
	}
	if got := s.Estimate(); got != 0 {
		t.Fatalf("F2 of cancelled stream = %v, want 0", got)
	}
}

func TestCountSketchMergeEqualsWhole(t *testing.T) {
	m := NewF2Maker(128, 5, hash.New(113))
	whole := m.New()
	a, b := m.New(), m.New()
	rng := hash.New(17)
	for i := 0; i < 20000; i++ {
		x := rng.Uint64n(1000)
		whole.Add(x, 1)
		if i%2 == 0 {
			a.Add(x, 1)
		} else {
			b.Add(x, 1)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Linear sketches with shared seeds: merge must equal the whole
	// sketch exactly, not just approximately.
	if a.Estimate() != whole.Estimate() {
		t.Fatalf("merged estimate %v != whole-stream estimate %v", a.Estimate(), whole.Estimate())
	}
}

func TestCountSketchMergeIncompatible(t *testing.T) {
	rng := hash.New(127)
	a := NewF2Maker(64, 3, rng).New()
	b := NewF2Maker(64, 3, rng).New()
	if err := a.Merge(b); err != ErrIncompatible {
		t.Fatalf("err = %v, want ErrIncompatible", err)
	}
}

func TestCountSketchEstimateItem(t *testing.T) {
	m := NewF2Maker(1024, 5, hash.New(131))
	s := m.New().(*CountSketch)
	// One heavy item among background noise.
	for i := 0; i < 5000; i++ {
		s.Add(42, 1)
	}
	rng := hash.New(19)
	for i := 0; i < 20000; i++ {
		s.Add(1000+rng.Uint64n(2000), 1)
	}
	got := s.EstimateItem(42)
	if math.Abs(got-5000) > 500 {
		t.Fatalf("EstimateItem(42) = %v, want ~5000", got)
	}
}

func TestFkExactOnTinyStream(t *testing.T) {
	m := NewFkMaker(3, 16, 64, 256, 5, hash.New(179))
	s := m.New()
	// 10 items, each 4 times: F3 = 10 * 64 = 640. No eviction happens,
	// so the level-0 candidate set is complete and counts are exact.
	for x := uint64(0); x < 10; x++ {
		for r := 0; r < 4; r++ {
			s.Add(x, 1)
		}
	}
	got := s.Estimate()
	if math.Abs(got-640) > 64 {
		t.Fatalf("F3 = %v, want ~640", got)
	}
}

func TestFkZipfAccuracy(t *testing.T) {
	// Skewed stream: F3 dominated by heavy hitters, which the candidate
	// tracker must capture.
	m := NewFkMaker(3, 32, 512, 2048, 5, hash.New(181))
	s := m.New()
	freq := map[uint64]int64{}
	for _, x := range zipfStream(300000, 20000, 1.5, 31) {
		s.Add(x, 1)
		freq[x]++
	}
	exact := exactMoment(freq, 3)
	got := s.Estimate()
	if rel := math.Abs(got-exact) / exact; rel > 0.25 {
		t.Fatalf("F3 estimate %v vs exact %v, rel err %v", got, exact, rel)
	}
}

func TestFkUniformAccuracy(t *testing.T) {
	// Uniform stream: Fk is all residual, exercising the
	// Horvitz–Thompson part of the estimator.
	m := NewFkMaker(3, 32, 1024, 2048, 5, hash.New(191))
	s := m.New()
	freq := map[uint64]int64{}
	rng := hash.New(37)
	for i := 0; i < 300000; i++ {
		x := rng.Uint64n(30000)
		s.Add(x, 1)
		freq[x]++
	}
	exact := exactMoment(freq, 3)
	got := s.Estimate()
	if rel := math.Abs(got-exact) / exact; rel > 0.35 {
		t.Fatalf("F3 estimate %v vs exact %v, rel err %v", got, exact, rel)
	}
}

func TestFkMergeEqualsWholeDistribution(t *testing.T) {
	m := NewFkMaker(3, 32, 256, 1024, 5, hash.New(193))
	whole, a, b := m.New(), m.New(), m.New()
	for i, x := range zipfStream(100000, 10000, 1.3, 41) {
		whole.Add(x, 1)
		if i%2 == 0 {
			a.Add(x, 1)
		} else {
			b.Add(x, 1)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	w, g := whole.Estimate(), a.Estimate()
	if rel := math.Abs(g-w) / w; rel > 0.3 {
		t.Fatalf("merged Fk %v deviates from whole-stream %v by %v", g, w, rel)
	}
}

// TestFkImageReproducible: the same stream into sketches of equal-seeded
// makers yields the same image, pruning included — here every item has
// weight 1, so the prune's estimates tie and only its tie-break decides
// who survives. A daemon serving fk replays its log into these bytes.
func TestFkImageReproducible(t *testing.T) {
	image := func() []byte {
		s := NewFkMaker(3, 8, 16, 64, 3, hash.New(227)).New().(*Fk)
		for x := uint64(0); x < 400; x++ {
			s.Add(x, 1)
		}
		if !s.levels[0].evicted {
			t.Fatal("stream never overflowed the candidate set; nothing was pruned")
		}
		img, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	want := image()
	for i := 0; i < 4; i++ {
		if !bytes.Equal(image(), want) {
			t.Fatal("two runs of one stream marshal to different Fk images")
		}
	}
}

func TestFkCheapEstimateIsCheapAndSane(t *testing.T) {
	m := NewFkMaker(3, 16, 128, 256, 3, hash.New(197))
	s := m.New().(*Fk)
	for x := uint64(0); x < 50; x++ {
		s.Add(x, 1)
	}
	// No eviction: cheap estimate equals the exact F3 = 50.
	if got := s.CheapEstimate(); got != 50 {
		t.Fatalf("cheap estimate = %v, want 50", got)
	}
}

func TestCheapEstimateHelper(t *testing.T) {
	c := NewCountMaker().New()
	c.Add(1, 3)
	if got := CheapEstimate(c); got != 3 {
		t.Fatalf("CheapEstimate fallback = %v, want 3", got)
	}
	fk := NewFkMaker(3, 8, 64, 64, 3, hash.New(199)).New()
	fk.Add(1, 1)
	if got := CheapEstimate(fk); got != 1 {
		t.Fatalf("CheapEstimate fast path = %v, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(append([]float64(nil), c.in...)); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSketchSizes(t *testing.T) {
	rng := hash.New(211)
	// Size is what is stored: nothing when empty, x and weight per pair
	// in the items form, the whole array once promoted.
	cs := NewF2Maker(64, 3, rng).New()
	if cs.Size() != 0 {
		t.Errorf("empty CountSketch size = %d, want 0", cs.Size())
	}
	cs.Add(1, 1)
	if cs.Size() != 2 {
		t.Errorf("one-item CountSketch size = %d, want 2", cs.Size())
	}
	for x := uint64(2); x < 200; x++ {
		cs.Add(x, 1)
	}
	if cs.Size() != 192 {
		t.Errorf("dense CountSketch size = %d, want 192", cs.Size())
	}
}
