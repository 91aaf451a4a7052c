package gen

import (
	"math"
	"testing"
)

func TestUniformBoundsAndLen(t *testing.T) {
	s := Uniform(10000, 500, 1000, 1)
	if s.Len() != 10000 {
		t.Fatalf("Len = %d", s.Len())
	}
	n := 0
	for {
		tp, ok := s.Next()
		if !ok {
			break
		}
		n++
		if tp.X >= 500 || tp.Y >= 1000 {
			t.Fatalf("tuple out of domain: %+v", tp)
		}
	}
	if n != 10000 {
		t.Fatalf("produced %d tuples", n)
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Collect(Uniform(1000, 100, 100, 7))
	b := Collect(Uniform(1000, 100, 100, 7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestUniformXMarginal(t *testing.T) {
	s := Uniform(200000, 10, 1000, 3)
	counts := make([]int, 10)
	for {
		tp, ok := s.Next()
		if !ok {
			break
		}
		counts[tp.X]++
	}
	for x, c := range counts {
		if math.Abs(float64(c)-20000) > 6*math.Sqrt(20000) {
			t.Fatalf("x=%d count %d deviates from uniform", x, c)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := Zipf(200000, 10000, 1000, 1.0, 5)
	counts := map[uint64]int{}
	for {
		tp, ok := s.Next()
		if !ok {
			break
		}
		counts[tp.X]++
	}
	// Zipf(1): item 0 should be about twice as frequent as item 1 and
	// ten times item 9.
	r01 := float64(counts[0]) / float64(counts[1])
	if r01 < 1.6 || r01 > 2.4 {
		t.Fatalf("zipf ratio f0/f1 = %v, want ~2", r01)
	}
	r09 := float64(counts[0]) / float64(counts[9])
	if r09 < 7 || r09 > 13 {
		t.Fatalf("zipf ratio f0/f9 = %v, want ~10", r09)
	}
}

func TestZipfAlpha2MoreSkewed(t *testing.T) {
	count0 := func(alpha float64) int {
		s := Zipf(100000, 10000, 1000, alpha, 9)
		n := 0
		for {
			tp, ok := s.Next()
			if !ok {
				return n
			}
			if tp.X == 0 {
				n++
			}
		}
	}
	if c2, c1 := count0(2.0), count0(1.0); c2 <= c1 {
		t.Fatalf("alpha=2 top item count %d not above alpha=1 count %d", c2, c1)
	}
}

func TestZipfPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(alpha=0) did not panic")
		}
	}()
	Zipf(10, 10, 10, 0, 1)
}

func TestEthernetShape(t *testing.T) {
	s := Ethernet(100000, 11)
	var maxX, lastY uint64
	small, big := 0, 0
	n := 0
	for {
		tp, ok := s.Next()
		if !ok {
			break
		}
		n++
		if tp.X > maxX {
			maxX = tp.X
		}
		if tp.X < 150 {
			small++
		}
		if tp.X >= 1400 {
			big++
		}
		if tp.Y > lastY {
			lastY = tp.Y
		}
	}
	if n != 100000 {
		t.Fatalf("produced %d", n)
	}
	if maxX >= EthernetXDomain {
		t.Fatalf("packet size %d outside domain", maxX)
	}
	// Bimodal: both modes well represented.
	if small < n/5 || big < n/5 {
		t.Fatalf("modes underrepresented: small=%d big=%d of %d", small, big, n)
	}
	// Timestamps advance to roughly n/2 * 1ms per interleaved trace.
	if lastY < uint64(n/4) || lastY > uint64(n) {
		t.Fatalf("final timestamp %d implausible for %d packets", lastY, n)
	}
}

func TestEthernetTimestampsNondecreasingPerTrace(t *testing.T) {
	s := Ethernet(10000, 13)
	var lastA, lastB uint64
	for i := 0; ; i++ {
		tp, ok := s.Next()
		if !ok {
			break
		}
		if i%2 == 0 {
			if tp.Y < lastA {
				t.Fatal("trace A timestamps decreased")
			}
			lastA = tp.Y
		} else {
			if tp.Y < lastB {
				t.Fatal("trace B timestamps decreased")
			}
			lastB = tp.Y
		}
	}
}

func TestSymmetricDifference(t *testing.T) {
	a := []Tuple{{1, 10}, {2, 20}}
	b := []Tuple{{2, 20}, {3, 30}}
	w := SymmetricDifference(a, b)
	if len(w) != 4 {
		t.Fatalf("len = %d", len(w))
	}
	net := map[Tuple]int64{}
	for _, t := range w {
		net[Tuple{t.X, t.Y}] += t.W
	}
	if net[Tuple{1, 10}] != 1 || net[Tuple{2, 20}] != 0 || net[Tuple{3, 30}] != -1 {
		t.Fatalf("net weights wrong: %v", net)
	}
}

func TestCollect(t *testing.T) {
	got := Collect(Uniform(50, 10, 10, 1))
	if len(got) != 50 {
		t.Fatalf("collected %d", len(got))
	}
}

// TestStreamsArePrefixStable: at a fixed seed, the first m tuples of an
// n-tuple stream are the m-tuple stream — the length only says where to
// stop. The service smoke script's crash-free oracle relies on this when
// it regenerates an acknowledged prefix with corrgen -n M.
func TestStreamsArePrefixStable(t *testing.T) {
	const n, seed = 20_000, 11
	for _, tc := range []struct {
		name string
		make func(n int) Stream
	}{
		{"uniform", func(n int) Stream { return Uniform(n, 500_001, 1_000_001, seed) }},
		{"zipf1", func(n int) Stream { return Zipf(n, 50_001, 1_000_001, 1, seed) }},
		{"zipf2", func(n int) Stream { return Zipf(n, 50_001, 1_000_001, 2, seed) }},
		{"ethernet", func(n int) Stream { return Ethernet(n, seed) }},
	} {
		whole := Collect(tc.make(n))
		for _, m := range []int{0, 1, 2, 3, 999, 12_345, n} {
			prefix := Collect(tc.make(m))
			if len(prefix) != m {
				t.Fatalf("%s: %d-tuple stream produced %d", tc.name, m, len(prefix))
			}
			for i := range prefix {
				if prefix[i] != whole[i] {
					t.Fatalf("%s: tuple %d of the %d-tuple stream is %+v, of the %d-tuple stream %+v",
						tc.name, i, m, prefix[i], n, whole[i])
				}
			}
		}
	}
}
