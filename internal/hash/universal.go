package hash

import "math/bits"

// mersenne61 is the Mersenne prime 2^61 - 1, the classical modulus for
// Carter–Wegman polynomial hashing on 64-bit words.
const mersenne61 = (uint64(1) << 61) - 1

// mulmod61 computes a*b mod 2^61-1 without overflow using a 128-bit
// intermediate product.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo, and 2^61 ≡ 1 (mod p).
	res := (hi << 3) | (lo >> 61)
	res += lo & mersenne61
	if res >= mersenne61 {
		res -= mersenne61
	}
	return res
}

// addmod61 computes a+b mod 2^61-1 for a, b < 2^61-1.
func addmod61(a, b uint64) uint64 {
	s := a + b
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// fold61 reduces an arbitrary 64-bit value into [0, 2^61-1).
func fold61(x uint64) uint64 {
	r := (x >> 61) + (x & mersenne61)
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// Reduce61 maps a hash value h ∈ [0, 2^61-1) into [0, n) by Lemire's
// multiply-shift reduction: floor(h' · n / 2^64) with h' = h << 3 spreading
// the 61 significant bits across the full word. Unlike `h % n` it compiles
// to one multiplication and no division, and the bias is the same
// negligible n/2^61 the modulo had.
func Reduce61(h, n uint64) uint64 {
	hi, _ := bits.Mul64(h<<3, n)
	return hi
}

// FourWise is a 4-universal (4-wise independent) hash function
// h(x) = a3*x^3 + a2*x^2 + a1*x + a0 mod 2^61-1. Four-wise independence is
// what the AMS second-moment analysis requires of the sign function, and it
// is the degree used by Thorup–Zhang's tabulation-based scheme.
type FourWise struct {
	a [4]uint64
}

// NewFourWise draws a random degree-3 polynomial from rng.
func NewFourWise(rng *RNG) *FourWise {
	f := &FourWise{}
	for i := range f.a {
		f.a[i] = rng.Uint64n(mersenne61)
	}
	// Force the polynomial to be non-constant so the function cannot
	// degenerate (probability 2^-61 event, but determinism matters here).
	if f.a[1]|f.a[2]|f.a[3] == 0 {
		f.a[1] = 1
	}
	return f
}

// Hash evaluates the polynomial at x (folded into the field first) and
// returns a value in [0, 2^61-1).
func (f *FourWise) Hash(x uint64) uint64 {
	v := fold61(x)
	h := f.a[3]
	h = addmod61(mulmod61(h, v), f.a[2])
	h = addmod61(mulmod61(h, v), f.a[1])
	h = addmod61(mulmod61(h, v), f.a[0])
	return h
}

// Powers61 returns x folded into the field, with its square and cube: the
// three values HashPowers needs, shared by every polynomial evaluated at x.
func Powers61(x uint64) (v, v2, v3 uint64) {
	v = fold61(x)
	v2 = mulmod61(v, v)
	return v, v2, mulmod61(v2, v)
}

// HashPowers is Hash(x) given Powers61(x). The three products, each below
// 2^122, are summed as one 128-bit integer and reduced once.
func (f *FourWise) HashPowers(v, v2, v3 uint64) uint64 {
	h3, l3 := bits.Mul64(f.a[3], v3)
	h2, l2 := bits.Mul64(f.a[2], v2)
	h1, l1 := bits.Mul64(f.a[1], v)
	lo, c := bits.Add64(l3, l2, 0)
	hi, _ := bits.Add64(h3, h2, c)
	lo, c = bits.Add64(lo, l1, 0)
	hi, _ = bits.Add64(hi, h1, c)
	lo, c = bits.Add64(lo, f.a[0], 0)
	hi += c
	// 2^61 ≡ 1: fold the 125-bit sum to 64 bits, then to the field.
	return fold61((hi<<3 | lo>>61) + (lo & mersenne61))
}

// Equal reports whether f and o compute the same function (identical
// polynomial coefficients). Summaries built from equal seeds draw equal
// hash functions, which is what makes their sketches mergeable.
func (f *FourWise) Equal(o *FourWise) bool {
	return o != nil && f.a == o.a
}

// Sign maps x to ±1 using the low bit of the 4-wise hash.
func (f *FourWise) Sign(x uint64) int64 {
	if f.Hash(x)&1 == 1 {
		return 1
	}
	return -1
}

// Bucket maps x to [0, w) via Reduce61; the bias is at most w/2^61,
// negligible for any practical table width.
func (f *FourWise) Bucket(x uint64, w int) int {
	return int(Reduce61(f.Hash(x), uint64(w)))
}

// Tab64 is simple tabulation hashing on the 8 bytes of a 64-bit key:
// h(x) = T0[x&0xff] ^ T1[(x>>8)&0xff] ^ ... ^ T7[x>>56].
// Simple tabulation is 3-universal and behaves far better than that in
// practice (Pătraşcu–Thorup); it is the workhorse we use for sub-sampling
// decisions (distinct sampling, Indyk–Woodruff levels) because a hash costs
// eight table lookups and no multiplications.
type Tab64 struct {
	t [8][256]uint64
}

// NewTab64 fills the tables from rng.
func NewTab64(rng *RNG) *Tab64 {
	tb := &Tab64{}
	for i := 0; i < 8; i++ {
		for j := 0; j < 256; j++ {
			tb.t[i][j] = rng.Uint64()
		}
	}
	return tb
}

// Equal reports whether tb and o compute the same function (identical
// tables). Used to validate that sketches from independently constructed
// but equal-seeded makers may merge.
func (tb *Tab64) Equal(o *Tab64) bool {
	return o != nil && tb.t == o.t
}

// Hash returns a uniform 64-bit hash of x.
func (tb *Tab64) Hash(x uint64) uint64 {
	return tb.t[0][byte(x)] ^
		tb.t[1][byte(x>>8)] ^
		tb.t[2][byte(x>>16)] ^
		tb.t[3][byte(x>>24)] ^
		tb.t[4][byte(x>>32)] ^
		tb.t[5][byte(x>>40)] ^
		tb.t[6][byte(x>>48)] ^
		tb.t[7][byte(x>>56)]
}

// Unit returns the hash mapped into [0, 1), used for "h(x) <= 1/2^i"
// distinct-sampling tests.
func (tb *Tab64) Unit(x uint64) float64 {
	return float64(tb.Hash(x)>>11) / (1 << 53)
}

// Level returns the number of leading zeros of the hash, i.e. the deepest
// sub-sampling level that x belongs to: Pr[Level(x) >= j] = 2^-j.
func (tb *Tab64) Level(x uint64) int {
	return bits.LeadingZeros64(tb.Hash(x) | 1)
}
