// Package gen generates the evaluation workloads of the paper's Section 5:
// Uniform, Zipf(α=1), Zipf(α=2) — tuples (x, y) with x from the given
// distribution and y uniform — plus a synthetic Ethernet-style packet
// trace standing in for the LBL traces the paper used (README "Layout":
// cmd/corrbench and cmd/corrgen regenerate the experiments from these).
//
// Generators are streaming (constant memory regardless of n) and
// deterministic in their seed, so the 40–50M-tuple runs of the paper can
// be regenerated without materializing them.
package gen

import (
	"math"
	"sort"

	"github.com/streamagg/correlated/internal/hash"
)

// Tuple is one stream element.
type Tuple struct {
	X, Y uint64
}

// Stream produces tuples one at a time.
type Stream interface {
	// Next returns the next tuple; ok is false when the stream is done.
	Next() (t Tuple, ok bool)
	// Len returns the total number of tuples the stream will produce.
	Len() int
}

// UniformStream draws x uniform over [0, XDomain) and y uniform over
// [0, YDomain). The paper's Uniform dataset uses XDomain 500001 (F2) or
// 1000001 (F0) and YDomain 1000001.
type UniformStream struct {
	n, i       int
	xdom, ydom uint64
	rng        *hash.RNG
}

// Uniform returns a UniformStream of n tuples.
func Uniform(n int, xdom, ydom uint64, seed uint64) *UniformStream {
	return &UniformStream{n: n, xdom: xdom, ydom: ydom, rng: hash.New(seed)}
}

// Next implements Stream.
func (s *UniformStream) Next() (Tuple, bool) {
	if s.i >= s.n {
		return Tuple{}, false
	}
	s.i++
	return Tuple{X: s.rng.Uint64n(s.xdom), Y: s.rng.Uint64n(s.ydom)}, true
}

// Len implements Stream.
func (s *UniformStream) Len() int { return s.n }

// ZipfStream draws x from a Zipf(alpha) distribution over [0, XDomain)
// (identifier i has probability proportional to 1/(i+1)^alpha) and y
// uniform over [0, YDomain).
type ZipfStream struct {
	n, i  int
	ydom  uint64
	cdf   []float64
	total float64
	rng   *hash.RNG
}

// Zipf returns a ZipfStream of n tuples with parameter alpha > 0.
func Zipf(n int, xdom, ydom uint64, alpha float64, seed uint64) *ZipfStream {
	if alpha <= 0 {
		panic("gen: Zipf alpha must be positive")
	}
	cdf := make([]float64, xdom)
	tot := 0.0
	for i := uint64(0); i < xdom; i++ {
		tot += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = tot
	}
	return &ZipfStream{n: n, ydom: ydom, cdf: cdf, total: tot, rng: hash.New(seed)}
}

// Next implements Stream.
func (s *ZipfStream) Next() (Tuple, bool) {
	if s.i >= s.n {
		return Tuple{}, false
	}
	s.i++
	u := s.rng.Float64() * s.total
	x := sort.SearchFloat64s(s.cdf, u)
	if x >= len(s.cdf) {
		x = len(s.cdf) - 1
	}
	return Tuple{X: uint64(x), Y: s.rng.Uint64n(s.ydom)}, true
}

// Len implements Stream.
func (s *ZipfStream) Len() int { return s.n }

// EthernetStream is the synthetic stand-in for the LBL Ethernet packet
// traces used in the paper's F0 experiments: x is a packet size in
// [0, 2000] drawn from a bimodal small-packet/MTU mixture, and y is a
// millisecond timestamp advancing with jitter. Two independently seeded
// traces are interleaved, exactly as the paper combined two traces. What
// the F0 experiment exploits — a tiny x-domain and timestamps spread over
// the trace duration — is preserved.
type EthernetStream struct {
	n, i   int
	rngA   *hash.RNG
	rngB   *hash.RNG
	tA, tB uint64
}

// Ethernet returns an EthernetStream of n tuples.
func Ethernet(n int, seed uint64) *EthernetStream {
	return &EthernetStream{n: n, rngA: hash.New(seed), rngB: hash.New(seed ^ 0xdeadbeef)}
}

// Next implements Stream.
func (s *EthernetStream) Next() (Tuple, bool) {
	if s.i >= s.n {
		return Tuple{}, false
	}
	var rng *hash.RNG
	var clock *uint64
	if s.i%2 == 0 {
		rng, clock = s.rngA, &s.tA
	} else {
		rng, clock = s.rngB, &s.tB
	}
	s.i++
	// Bimodal packet sizes: 40% TCP-ack sized, 40% near-MTU, 20% spread.
	var size uint64
	switch v := rng.Uint64n(10); {
	case v < 4:
		size = 40 + rng.Uint64n(80)
	case v < 8:
		size = 1400 + rng.Uint64n(120)
	default:
		size = 120 + rng.Uint64n(1280)
	}
	// Millisecond clock advancing by 0–2ms per packet on each trace.
	*clock += rng.Uint64n(3)
	return Tuple{X: size, Y: *clock}, true
}

// Len implements Stream.
func (s *EthernetStream) Len() int { return s.n }

// EthernetXDomain bounds the x values Ethernet produces.
const EthernetXDomain = 2048

// Collect materializes a stream (for tests and small runs).
func Collect(s Stream) []Tuple {
	out := make([]Tuple, 0, s.Len())
	for {
		t, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// WeightedTuple is a turnstile stream element (Section 4).
type WeightedTuple struct {
	X, Y uint64
	W    int64
}

// SymmetricDifference builds the turnstile encoding of two datasets: all
// tuples of a with weight +1 followed by all tuples of b with weight −1,
// so net frequencies reflect the symmetric difference (Section 4's
// motivating use).
func SymmetricDifference(a, b []Tuple) []WeightedTuple {
	out := make([]WeightedTuple, 0, len(a)+len(b))
	for _, t := range a {
		out = append(out, WeightedTuple{t.X, t.Y, 1})
	}
	for _, t := range b {
		out = append(out, WeightedTuple{t.X, t.Y, -1})
	}
	return out
}
