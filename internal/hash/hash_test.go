package hash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("splitmix64 diverged at step %d", i)
		}
	}
}

func TestSplitMix64KnownVector(t *testing.T) {
	// Reference value for seed 0 from the published splitmix64 algorithm.
	s := NewSplitMix64(0)
	if got := s.Next(); got != 0xe220a8397b1dcdaf {
		t.Fatalf("splitmix64(0) first output = %#x, want 0xe220a8397b1dcdaf", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("rng diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("rngs with different seeds produced %d identical outputs", same)
	}
}

func TestRNGUint64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	r := New(5)
	c1 := r.Split()
	c2 := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split rngs produced %d identical outputs", same)
	}
}

func TestMulmod61(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 1, 1},
		{mersenne61 - 1, 1, mersenne61 - 1},
		{mersenne61 - 1, mersenne61 - 1, 1}, // (-1)*(-1) = 1 mod p
		{2, 1 << 60, (uint64(1) << 61) % mersenne61},
	}
	for _, c := range cases {
		if got := mulmod61(c.a, c.b); got != c.want {
			t.Errorf("mulmod61(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulmod61AgainstBigIntStyle(t *testing.T) {
	// Cross-check with a slow double-and-add implementation.
	slow := func(a, b uint64) uint64 {
		var acc uint64
		a %= mersenne61
		for b > 0 {
			if b&1 == 1 {
				acc = addmod61(acc, a)
			}
			a = addmod61(a, a)
			b >>= 1
		}
		return acc
	}
	r := New(13)
	for i := 0; i < 500; i++ {
		a := r.Uint64n(mersenne61)
		b := r.Uint64n(mersenne61)
		if fast, ref := mulmod61(a, b), slow(a, b); fast != ref {
			t.Fatalf("mulmod61(%d,%d) = %d, want %d", a, b, fast, ref)
		}
	}
}

// TestFourWiseHashPowersEqualsHash: summing the terms from shared powers and
// reducing once must give the value nested evaluation gives — sketch images
// written under one are read under the other.
func TestFourWiseHashPowersEqualsHash(t *testing.T) {
	rng := New(5)
	edges := []uint64{0, 1, ^uint64(0), mersenne61 - 1, mersenne61, mersenne61 + 1, 1 << 63}
	for k := 0; k < 100; k++ {
		f := NewFourWise(rng)
		if k == 0 { // the largest coefficients: the 128-bit sum's worst case
			f.a = [4]uint64{mersenne61 - 1, mersenne61 - 1, mersenne61 - 1, mersenne61 - 1}
		}
		for i := 0; i < 2000; i++ {
			x := rng.Uint64()
			if i < len(edges) {
				x = edges[i]
			}
			v, v2, v3 := Powers61(x)
			if got, want := f.HashPowers(v, v2, v3), f.Hash(x); got != want {
				t.Fatalf("x = %d: HashPowers %d, Hash %d", x, got, want)
			}
		}
	}
}

func TestFourWiseSignBalance(t *testing.T) {
	f := NewFourWise(New(17))
	sum := int64(0)
	const n = 100000
	for x := uint64(0); x < n; x++ {
		sum += f.Sign(x)
	}
	// Expected |sum| ~ sqrt(n) ~ 316; allow 6 sigma.
	if math.Abs(float64(sum)) > 6*math.Sqrt(n) {
		t.Fatalf("sign sum = %d, too far from 0 for %d keys", sum, n)
	}
}

func TestFourWisePairwiseSignIndependence(t *testing.T) {
	// E[s(x)s(y)] should be ~0 for x != y; check over many pairs.
	f := NewFourWise(New(19))
	sum := int64(0)
	const n = 50000
	for x := uint64(0); x < n; x++ {
		sum += f.Sign(2*x) * f.Sign(2*x+1)
	}
	if math.Abs(float64(sum)) > 6*math.Sqrt(n) {
		t.Fatalf("pair sign correlation sum = %d over %d pairs", sum, n)
	}
}

func TestFourWiseBucketUniform(t *testing.T) {
	f := NewFourWise(New(23))
	const w = 64
	const n = 64 * 4000
	counts := make([]int, w)
	for x := uint64(0); x < n; x++ {
		counts[f.Bucket(x, w)]++
	}
	chi2 := 0.0
	exp := float64(n) / w
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	// df=63; mean 63, sd ~ 11.2; allow generous bound.
	if chi2 > 63+8*11.3 {
		t.Fatalf("chi2 = %v too large for uniform buckets", chi2)
	}
}

func TestTab64Deterministic(t *testing.T) {
	a := NewTab64(New(37))
	b := NewTab64(New(37))
	for x := uint64(0); x < 1000; x++ {
		if a.Hash(x*2654435761) != b.Hash(x*2654435761) {
			t.Fatalf("tab64 not deterministic at %d", x)
		}
	}
}

func TestTab64BitBalance(t *testing.T) {
	tb := NewTab64(New(41))
	const n = 100000
	var ones [64]int
	for x := uint64(0); x < n; x++ {
		h := tb.Hash(x)
		for b := 0; b < 64; b++ {
			if h>>(uint(b))&1 == 1 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		if math.Abs(float64(c)-n/2) > 6*math.Sqrt(n)/2 {
			t.Fatalf("bit %d set in %d of %d hashes, biased", b, c, n)
		}
	}
}

func TestTab64LevelGeometric(t *testing.T) {
	tb := NewTab64(New(43))
	const n = 1 << 18
	var counts [20]int
	for x := uint64(0); x < n; x++ {
		l := tb.Level(x)
		if l < len(counts) {
			counts[l]++
		}
	}
	// Pr[Level == j] = 2^-(j+1); check the first few levels.
	for j := 0; j < 6; j++ {
		exp := float64(n) / float64(uint64(2)<<uint(j))
		if math.Abs(float64(counts[j])-exp) > 6*math.Sqrt(exp) {
			t.Fatalf("level %d count %d, want ~%v", j, counts[j], exp)
		}
	}
}

func TestTab64UnitRange(t *testing.T) {
	tb := NewTab64(New(47))
	for x := uint64(0); x < 10000; x++ {
		u := tb.Unit(x)
		if u < 0 || u >= 1 {
			t.Fatalf("Unit(%d) = %v out of [0,1)", x, u)
		}
	}
}

func TestFold61Property(t *testing.T) {
	f := func(x uint64) bool {
		r := fold61(x)
		return r < mersenne61
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddmod61Property(t *testing.T) {
	r := New(53)
	f := func() bool {
		a := r.Uint64n(mersenne61)
		b := r.Uint64n(mersenne61)
		s := addmod61(a, b)
		return s < mersenne61 && s == (a+b)%mersenne61
	}
	for i := 0; i < 1000; i++ {
		if !f() {
			t.Fatal("addmod61 violated modular addition")
		}
	}
}

func TestFourWiseHashInField(t *testing.T) {
	fw := NewFourWise(New(59))
	f := func(x uint64) bool { return fw.Hash(x) < mersenne61 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTab64Hash(b *testing.B) {
	tb := NewTab64(New(1))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= tb.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkFourWiseHash(b *testing.B) {
	f := NewFourWise(New(1))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= f.Hash(uint64(i))
	}
	_ = sink
}
