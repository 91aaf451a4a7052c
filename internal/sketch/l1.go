package sketch

import (
	"math"
	"sort"

	"github.com/streamagg/correlated/internal/hash"
)

// L1 is Indyk's stable-distribution sketch for the first moment of net
// weights, F1 = Σ_x |f_x|, in the turnstile model: k counters
// c_j = Σ_x f_x · C(j, x) with C(j, x) i.i.d. standard Cauchy (generated
// on the fly from a tabulation hash of (j, x), so sketches from one maker
// merge by addition). Because the Cauchy distribution is 1-stable,
// c_j is distributed as F1 times a standard Cauchy, and the median of
// |c_1|, ..., |c_k| concentrates at F1 (the median of |Cauchy| is 1).
//
// This is the natural whole-stream estimator for the g(k) = |k| member of
// the paper's Section 4 function class; MULTIPASS probes it to answer
// correlated F1 queries over ±-weighted streams.
type L1 struct {
	maker *L1Maker
	cnt   []float64
}

// L1Maker creates L1 sketches sharing the Cauchy-generating hash.
type L1Maker struct {
	k          int
	h          *hash.Tab64
	medScratch []float64 // reused by Estimate
}

// NewL1Maker returns a maker of sketches with k counters; the estimator's standard
// error is Θ(1/sqrt(k)).
func NewL1Maker(k int, rng *hash.RNG) *L1Maker {
	if k < 8 {
		panic("sketch: L1 needs k >= 8")
	}
	return &L1Maker{k: k, h: hash.NewTab64(rng)}
}

// NewL1MakerError sizes the sketch for relative error upsilon with
// failure probability gamma.
func NewL1MakerError(upsilon, gamma float64, rng *hash.RNG) *L1Maker {
	if upsilon <= 0 || upsilon >= 1 {
		panic("sketch: upsilon must be in (0,1)")
	}
	k := int(math.Ceil(8 / (upsilon * upsilon) * math.Log2(2/gamma) / 4))
	if k < 64 {
		k = 64
	}
	if k > 1<<16 {
		k = 1 << 16
	}
	return &L1Maker{k: k, h: hash.NewTab64(rng)}
}

// New returns an empty sketch.
func (m *L1Maker) New() Sketch {
	return &L1{maker: m, cnt: make([]float64, m.k)}
}

// K returns the counter count.
func (m *L1Maker) K() int { return m.k }

// cauchy returns the deterministic standard-Cauchy variate C(j, x).
func (m *L1Maker) cauchy(j int, x uint64) float64 {
	// Mix the counter index into the key; tabulation output is uniform
	// on [0, 1), mapped through the Cauchy quantile function.
	u := m.h.Unit(x*0x9e3779b97f4a7c15 + uint64(j)*0xbf58476d1ce4e5b9 + uint64(j))
	// Keep u away from the poles at 0 and 1 (tan singularities).
	u = u*(1-1e-12) + 5e-13
	return math.Tan(math.Pi * (u - 0.5))
}

// Add implements Sketch.
func (s *L1) Add(x uint64, w int64) {
	wf := float64(w)
	for j := range s.cnt {
		s.cnt[j] += wf * s.maker.cauchy(j, x)
	}
}

// Reset implements Resetter.
func (s *L1) Reset() {
	for j := range s.cnt {
		s.cnt[j] = 0
	}
}

// Estimate implements Sketch: the median of absolute counter values,
// computed on a maker-owned scratch buffer.
func (s *L1) Estimate() float64 {
	m := s.maker
	if cap(m.medScratch) < len(s.cnt) {
		m.medScratch = make([]float64, len(s.cnt))
	}
	abs := m.medScratch[:len(s.cnt)]
	for i, v := range s.cnt {
		abs[i] = math.Abs(v)
	}
	sort.Float64s(abs)
	k := len(abs)
	if k%2 == 1 {
		return abs[k/2]
	}
	return (abs[k/2-1] + abs[k/2]) / 2
}

// Merge implements Sketch by counter-wise addition. The other sketch may
// come from the same maker or from an equivalent one.
func (s *L1) Merge(other Sketch) error {
	o, ok := other.(*L1)
	if !ok || !s.maker.equivalent(o.maker) {
		return ErrIncompatible
	}
	for j := range s.cnt {
		s.cnt[j] += o.cnt[j]
	}
	return nil
}

// Size implements Sketch.
func (s *L1) Size() int { return len(s.cnt) }
