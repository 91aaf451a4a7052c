package bitcode

import (
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// TestPairsReadAsCodes: pairs of values of every length, in codes drawn
// from both kinds and every k, and a second column Rice at k = 0 that is
// mostly 0, read back by Pairs as by code, a value at a time, whichever
// lengths meet across a load of the stream and however many pairs a call
// asks for, and a stream cut anywhere fails both at the same pair.
func TestPairsReadAsCodes(t *testing.T) {
	rng := hash.New(9)
	code := func() byte { return byte(rng.Uint64n(64)) | byte(rng.Uint64n(2))*ExpGolomb }
	value := func(c byte) uint64 {
		v := rng.Uint64n(math.MaxUint64) >> rng.Uint64n(64)
		if c&ExpGolomb == 0 && v>>(c&KBits) > 200 {
			v &= 1<<(c&KBits+7) - 1 // a Rice quotient past 2^7 is dear, not different
		}
		return v
	}
	type pair struct {
		u, v uint64
		p, q byte
	}
	var pairs []pair
	w := NewWriter(nil)
	var p, q byte
	for i := 0; i < 2000; i++ {
		if i%100 == 0 {
			p, q = code(), code()
			if i == 100 {
				q = 0 // Rice at k = 0, a weight column: most values 0, one bit
			}
		}
		u, v := value(p), value(q)
		if q == 0 && i%3 != 0 {
			v = 0
		}
		w.Code(u, p)
		w.Code(v, q)
		pairs = append(pairs, pair{u, v, p, q})
	}
	written := w.Bits()
	stream := w.Flush()
	for _, cut := range []int{len(stream), len(stream) / 2, len(stream)/3 + 1, 1} {
		byCode, byPairs := NewReader(stream[:cut]), NewReader(stream[:cut])
		for i := 0; i < len(pairs); {
			n := min(1+i%7, 100-i%100) // one call's pairs share their codes
			us, vs := make([]uint64, n), make([]uint64, n)
			ok := byPairs.Pairs(pairs[i].p, pairs[i].q, us, vs)
			codeOK := true
			for j, want := range pairs[i : i+n] {
				u, okU := byCode.code(want.p)
				v, okV := byCode.code(want.q)
				if codeOK = okU && okV; !codeOK {
					break
				}
				if u != want.u || v != want.v || ok && (us[j] != u || vs[j] != v) {
					t.Fatalf("pair %d: wrote %d, %d; code read %d, %d; Pairs %d, %d", i+j, want.u, want.v, u, v, us[j], vs[j])
				}
			}
			if ok != codeOK {
				t.Fatalf("cut at %d of %d bytes, pairs %d to %d: Pairs ok=%v, code ok=%v", cut, len(stream), i, i+n, ok, codeOK)
			}
			if !ok {
				break
			}
			if byCode.Used() != byPairs.Used() {
				t.Fatalf("pairs %d to %d: code read %d bits, Pairs %d", i, i+n, byCode.Used(), byPairs.Used())
			}
			i += n
		}
		if cut == len(stream) && byPairs.Used() != uint64(written) {
			t.Fatalf("read %d bits of the %d written", byPairs.Used(), written)
		}
	}
}

// TestParamPicksTheShorterCode: on columns of every spread, Param names the
// code that writes the column in fewer bits at the k its sums give, Rice on
// a tie, counted by writing the column in both.
func TestParamPicksTheShorterCode(t *testing.T) {
	rng := hash.New(4)
	written := func(vs []uint64, p byte) int {
		w := NewWriter(nil)
		for _, v := range vs {
			w.Code(v, p)
		}
		return w.Bits()
	}
	for i := 0; i < 500; i++ {
		vs := make([]uint64, 1+rng.Uint64n(300))
		top, skew := 1+rng.Uint64n(64), rng.Uint64n(2) == 0
		for j := range vs {
			vs[j] = rng.Uint64n(math.MaxUint64) >> (64 - top)
			if skew {
				vs[j] >>= rng.Uint64n(top)
			}
		}
		var c Column
		for _, v := range vs {
			c.Add(v)
		}
		r, e := c.Ks(uint64(len(vs)))
		rice, eg := written(vs, byte(r)), written(vs, byte(e)|ExpGolomb)
		want := byte(r)
		if eg < rice {
			want = byte(e) | ExpGolomb
		}
		if got := Param(vs); got != want {
			t.Fatalf("column %d of %d values: Param picked %s; Rice k=%d takes %d bits, Exp-Golomb k=%d %d", i, len(vs), Describe(got), r, rice, e, eg)
		}
	}
}
