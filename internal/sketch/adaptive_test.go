package sketch

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// The sparse and dense forms of CountSketch must be indistinguishable
// through the API. These tests drive an adaptive sketch (starts sparse,
// promotes itself) beside a reference forced dense from birth through the
// same operations and compare everything observable after every step.

// forceDense turns c into the reference: dense from birth, and in plain
// modeDense so that no merge into it takes the sparse-operand shortcut.
func forceDense(c *CountSketch) *CountSketch {
	if c.mode == modeSparse {
		c.promote()
	}
	c.mode = modeDense
	return c
}

// pair is one adaptive sketch and its dense reference.
type pair struct{ a, r *CountSketch }

func newPair(m *F2Maker) pair {
	return pair{m.New().(*CountSketch), forceDense(m.New().(*CountSketch))}
}

// check compares everything the API exposes, and re-arms the reference
// (marshaling may have demoted it).
func (p pair) check(t *testing.T, m *F2Maker, step string) {
	t.Helper()
	if p.r.mode == modeSparse {
		t.Fatalf("%s: reference went sparse", step)
	}
	forceDense(p.r)
	defer forceDense(p.r)
	if a, r := math.Float64bits(p.a.Estimate()), math.Float64bits(p.r.Estimate()); a != r {
		t.Fatalf("%s: Estimate bits %#x (mode %d), dense %#x", step, a, p.a.mode, r)
	}
	for i := range p.a.rowF2 {
		if a, r := math.Float64bits(p.a.rowF2[i]), math.Float64bits(p.r.rowF2[i]); a != r {
			t.Fatalf("%s: rowF2[%d] bits %#x, dense %#x", step, i, a, r)
		}
	}
	for _, thresh := range []float64{1, 64, 1 << 20, 1e300} {
		if a, r := p.a.ThresholdBudget(thresh), p.r.ThresholdBudget(thresh); a != r {
			t.Fatalf("%s: ThresholdBudget(%g) = %d, dense %d", step, thresh, a, r)
		}
	}
	for x := uint64(0); x < 12; x++ {
		if a, r := p.a.EstimateItem(x), p.r.EstimateItem(x); a != r {
			t.Fatalf("%s: EstimateItem(%d) = %v, dense %v", step, x, a, r)
		}
	}
	nonzero := 0
	for i := 0; i < m.depth; i++ {
		for j := 0; j < m.width; j++ {
			if p.r.counter(i, j) != 0 {
				nonzero++
			}
		}
	}
	checkSize := func(when string) {
		t.Helper()
		switch {
		case p.a.mode == modeSparse && (p.a.n != nonzero || nonzero > m.sparseMax || p.a.Size() != 2*nonzero):
			t.Fatalf("%s %s: sparse with n=%d Size=%d, %d nonzero counters, sparseMax %d",
				step, when, p.a.n, p.a.Size(), nonzero, m.sparseMax)
		case p.a.mode != modeSparse && p.a.Size() != m.width*m.depth:
			t.Fatalf("%s %s: dense Size = %d", step, when, p.a.Size())
		}
	}
	checkSize("live")
	ab, _ := p.a.MarshalBinary()
	rb, _ := p.r.MarshalBinary()
	if !bytes.Equal(ab, rb) {
		t.Fatalf("%s: marshaled bytes differ", step)
	}
	// Marshaling settles the form on what the image will decode into.
	checkSize("marshaled")
	if (p.a.mode == modeSparse) != (nonzero <= m.sparseMax) {
		t.Fatalf("%s: mode %d after marshaling %d nonzero counters, sparseMax %d",
			step, p.a.mode, nonzero, m.sparseMax)
	}
	for _, f2 := range p.a.rowF2 {
		if p.a.mode == modeMerged && (f2 != math.Trunc(f2) || f2 >= exactF2Limit) {
			t.Fatalf("%s: modeMerged with rowF2 %v", step, f2)
		}
	}
	if len(m.flat) > 0 {
		for i, v := range m.flat {
			if v != 0 {
				t.Fatalf("%s: maker scratch left dirty at %d", step, i)
			}
		}
	}
}

// TestCountSketchFormsAgree runs seeded random operation sequences over a
// few registers, so merges meet every (receiver, operand) form pair.
func TestCountSketchFormsAgree(t *testing.T) {
	type formPair struct{ recv, op bool } // true = sparse
	seen := map[formPair]int{}
	for _, g := range []struct{ width, depth int }{{64, 3}, {356, 4}, {16, 1}, {50, 5}} {
		for seed := uint64(1); seed <= 12; seed++ {
			m := NewF2Maker(g.width, g.depth, hash.New(1000+seed))
			rng := hash.New(seed)
			// Weights: unit inserts, small signed updates, or values large
			// enough to leave the range where float sums are exact.
			weight := func() int64 {
				switch rng.Uint64n(10) {
				case 0:
					return int64(rng.Uint64n(1<<40)) - 1<<39
				case 1, 2, 3:
					return int64(rng.Uint64n(7)) - 3
				}
				return 1
			}
			regs := []pair{newPair(m), newPair(m), newPair(m)}
			domain := uint64(4 + rng.Uint64n(uint64(g.width)))
			var slots Slots
			for step := 0; step < 400; step++ {
				i := int(rng.Uint64n(3))
				p := &regs[i]
				var what string
				switch op := rng.Uint64n(20); {
				case op < 8:
					x, w := rng.Uint64n(domain), weight()
					what = fmt.Sprintf("Add(%d,%d)", x, w)
					p.a.Add(x, w)
					p.r.Add(x, w)
				case op < 13:
					x, w := rng.Uint64n(domain), weight()
					what = fmt.Sprintf("AddSlots(%d,%d)", x, w)
					slots = m.Slots(x, slots[:0])
					p.a.AddSlots(slots, w)
					p.r.AddSlots(slots, w)
				case op < 14:
					// Delete what was just added elsewhere: cancellations
					// take sparse counters back to zero.
					x := rng.Uint64n(domain)
					what = fmt.Sprintf("Add(%d,±2)", x)
					for _, w := range []int64{2, -2} {
						p.a.Add(x, w)
						p.r.Add(x, w)
					}
				case op < 17:
					q := regs[(i+1+int(rng.Uint64n(2)))%3]
					what = fmt.Sprintf("Merge(mode %d <- mode %d)", p.a.mode, q.a.mode)
					seen[formPair{p.a.mode == modeSparse, q.a.mode == modeSparse}]++
					if err := p.a.Merge(q.a); err != nil {
						t.Fatal(err)
					}
					if err := p.r.Merge(q.r); err != nil {
						t.Fatal(err)
					}
				case op < 18:
					what = "Recycle+New"
					m.Recycle(p.a)
					m.Recycle(p.r)
					// The pool is LIFO: the reference comes back first.
					p.r = forceDense(m.New().(*CountSketch))
					p.a = m.New().(*CountSketch)
					if p.a.mode != modeSparse || p.a.Size() != 0 || p.a.Estimate() != 0 {
						t.Fatalf("recycled sketch not empty: mode %d size %d", p.a.mode, p.a.Size())
					}
				case op < 19:
					what = "Merge(self)"
					if err := p.a.Merge(p.a); err != nil {
						t.Fatal(err)
					}
					if err := p.r.Merge(p.r); err != nil {
						t.Fatal(err)
					}
				default:
					what = "Marshal+Unmarshal"
					for _, c := range []**CountSketch{&p.a, &p.r} {
						img, err := (*c).MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						size := (*c).Size() // after marshaling: the settled form
						// Decode over a populated receiver: the image
						// must replace its state, not add to it.
						dst := m.New().(*CountSketch)
						dst.Add(rng.Uint64(), 5)
						if err := dst.UnmarshalBinary(img); err != nil {
							t.Fatal(err)
						}
						if c == &p.a && dst.Size() != size {
							t.Fatalf("Size %d became %d across Marshal/Unmarshal", size, dst.Size())
						}
						*c = dst
					}
					forceDense(p.r)
				}
				p.check(t, m, fmt.Sprintf("%dx%d seed %d step %d %s", g.width, g.depth, seed, step, what))
			}
		}
	}
	for _, fp := range []formPair{{true, true}, {true, false}, {false, true}, {false, false}} {
		if seen[fp] == 0 {
			t.Errorf("no merge with receiver sparse=%v, operand sparse=%v was generated", fp.recv, fp.op)
		}
	}
}

// TestCountSketchPromotionPoint stops a sketch one nonzero counter below
// the promotion point, at it and one past it, built from crafted slots so
// the count is exact, and checks the form on each side of Marshal.
func TestCountSketchPromotionPoint(t *testing.T) {
	const width, depth = 64, 3
	for _, target := range []int{-1, 0, 1} { // nonzero counters relative to sparseMax
		m := NewF2Maker(width, depth, hash.New(77))
		if m.sparseMax != width*depth/sparseDivisor || m.sparseMax%depth != 0 {
			t.Fatalf("sparseMax = %d", m.sparseMax)
		}
		p := newPair(m)
		add := func(cols ...uint64) {
			slots := make(Slots, depth)
			for i, c := range cols {
				slots[i] = c<<1 | 1
			}
			p.a.AddSlots(slots, 1)
			p.r.AddSlots(slots, 1)
		}
		full := uint64(m.sparseMax / depth)
		for c := uint64(0); c < full-1; c++ {
			add(c, c, c) // depth new counters each
		}
		switch target {
		case -1:
			add(full, full, 0) // two new counters, one revisited
		case 0:
			add(full, full, full)
		case 1:
			add(full, full, full)
			add(full+1, 0, 0) // the first row's counter is one too many
		}
		want := m.sparseMax + target
		step := fmt.Sprintf("sparseMax%+d", target)
		p.check(t, m, step)
		if sparse := p.a.mode == modeSparse; sparse != (target <= 0) || (sparse && p.a.n != want) {
			t.Fatalf("%s: mode %d with n=%d", step, p.a.mode, p.a.n)
		}

		// The restored form follows the nonzero count, like the live one.
		img, _ := p.a.MarshalBinary()
		dst := m.New().(*CountSketch)
		if err := dst.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		if (dst.mode == modeSparse) != (target <= 0) || dst.Size() != p.a.Size() {
			t.Fatalf("%s: restored mode %d size %d, live mode %d size %d",
				step, dst.mode, dst.Size(), p.a.mode, p.a.Size())
		}
		restored := pair{dst, p.r}
		restored.check(t, m, step+" restored")

		// A counter cancelling to zero is not stored: Size follows the
		// values, so it survives another round trip.
		if target == 0 {
			slots := Slots{full << 1, full << 1, full << 1} // sign −1 on the last item's counters
			p.a.AddSlots(slots, 1)
			p.r.AddSlots(slots, 1)
			p.check(t, m, step+" cancelled")
			if p.a.n != want-depth {
				t.Fatalf("after cancel n=%d, want %d", p.a.n, want-depth)
			}
			add(full+1, full+1, full+1) // room again without promoting
			p.check(t, m, step+" refilled")
			if p.a.mode != modeSparse {
				t.Fatal("cancelled entries still counted toward promotion")
			}
		}
	}
}

// TestCountSketchSparseMergeIsCheap pins the point of modeMerged: folding
// many small sketches into a composition sketch leaves it exact and never
// takes the full-array pass once it is dense.
func TestCountSketchSparseMergeIsCheap(t *testing.T) {
	m := NewF2Maker(356, 4, hash.New(5))
	out, ref := m.New().(*CountSketch), forceDense(m.New().(*CountSketch))
	for i := uint64(0); i < 400; i++ {
		sk := m.New().(*CountSketch)
		sk.Add(i, 1)
		sk.Add(i*7919, 2)
		if err := out.Merge(sk); err != nil {
			t.Fatal(err)
		}
		if err := ref.Merge(sk); err != nil {
			t.Fatal(err)
		}
		if out.mode == modeDense {
			t.Fatalf("merge %d left the composition sketch in plain dense mode", i)
		}
		pair{out, ref}.check(t, m, fmt.Sprintf("merge %d", i))
	}
	if out.mode != modeMerged {
		t.Fatalf("mode %d after 400 merges, want modeMerged", out.mode)
	}
}

// TestCountSketchSparseTableBounded: churn that keeps creating and
// cancelling counters must not grow the table past tabMax.
func TestCountSketchSparseTableBounded(t *testing.T) {
	m := NewF2Maker(356, 4, hash.New(9))
	s := m.New().(*CountSketch)
	for x := uint64(0); x < 20_000; x++ {
		s.Add(x, 1)
		s.Add(x, -1)
		if len(s.keys) > m.tabMax {
			t.Fatalf("table grew to %d slots, tabMax %d", len(s.keys), m.tabMax)
		}
	}
	if s.mode != modeSparse || s.Size() != 0 || s.Estimate() != 0 {
		t.Fatalf("mode %d size %d estimate %v after full cancellation", s.mode, s.Size(), s.Estimate())
	}
}

// TestCountSketchMergeExactnessLimits walks the merge shortcuts up to the
// magnitudes where their exactness arguments stop holding; past them the
// index-order pass must take over with no visible seam.
func TestCountSketchMergeExactnessLimits(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(21))
	merge := func(p pair, sk *CountSketch) {
		t.Helper()
		forceDense(p.r)
		for _, c := range []*CountSketch{p.a, p.r} {
			if err := c.Merge(sk); err != nil {
				t.Fatal(err)
			}
		}
	}
	// composed returns a pair promoted by merges alone, as Algorithm 3's
	// composition sketch is, so the adaptive side sits in modeMerged.
	composed := func() pair {
		p := newPair(m)
		for x := uint64(0); x < 40; x++ {
			sk := m.New().(*CountSketch)
			sk.Add(x, 1)
			merge(p, sk)
			m.Recycle(sk)
		}
		if p.a.mode != modeMerged {
			t.Fatalf("mode %d, want modeMerged", p.a.mode)
		}
		return p
	}

	// Rows that climb through exactF2Limit by many merges of values below
	// mergeValueLimit.
	p := composed()
	big := m.New().(*CountSketch)
	big.Add(3, mergeValueLimit-1)
	left := false
	for i := 0; i < 200; i++ {
		merge(p, big)
		p.check(t, m, fmt.Sprintf("big merge %d", i))
		left = left || p.a.mode == modeDense
	}
	if !left {
		t.Fatal("rows never passed exactF2Limit; the test no longer reaches the fallback")
	}

	// Operand values past mergeValueLimit overflow the integer shortcut —
	// these squares wrap int64 to a negative change — and must be refused.
	for i := int64(0); i < 8; i++ {
		p = composed()
		huge := m.New().(*CountSketch)
		huge.Add(5, 3037000500+i)
		merge(p, huge)
		p.check(t, m, fmt.Sprintf("huge merge %d", i))
	}

	// Sparse receivers whose squares are exact one by one but whose row
	// totals pass 2^53.
	q := newPair(m)
	for x := uint64(0); x < 6; x++ {
		sk := m.New().(*CountSketch)
		sk.Add(x, 1<<26-1)
		merge(q, sk)
		q.check(t, m, fmt.Sprintf("2^26 merge %d", x))
	}
	if q.a.mode != modeSparse {
		t.Fatalf("mode %d, want sparse", q.a.mode)
	}
}

// TestCountSketchMarshalSettlesForm: a dense sketch whose counters cancel
// back under the promotion point stays dense — the dense loop does not
// count zeros — until it is marshaled; from then on it and its restored
// copy report the same Size.
func TestCountSketchMarshalSettlesForm(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(31))
	p := newPair(m)
	add := func(x uint64, w int64) {
		p.a.Add(x, w)
		p.r.Add(x, w)
	}
	for x := uint64(0); x < 30; x++ {
		add(x, 1)
	}
	if p.a.mode != modeDense {
		t.Fatalf("mode %d after 30 items, want dense", p.a.mode)
	}
	for x := uint64(5); x < 30; x++ {
		add(x, -1)
	}
	if got, want := p.a.Size(), m.width*m.depth; got != want {
		t.Fatalf("Size %d before marshaling, want the dense %d", got, want)
	}
	img, err := p.a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if p.a.mode != modeSparse || p.a.Size() > 2*5*m.depth {
		t.Fatalf("mode %d Size %d after marshaling five items", p.a.mode, p.a.Size())
	}
	dst := m.New().(*CountSketch)
	if err := dst.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if dst.Size() != p.a.Size() {
		t.Fatalf("restored Size %d, live %d", dst.Size(), p.a.Size())
	}
	p.check(t, m, "demoted")
	for x := uint64(100); x < 140; x++ { // and back up through promotion
		add(x, 2)
		p.check(t, m, fmt.Sprintf("regrow %d", x))
	}
}

// TestCountSketchUnmarshalPaddedZeros: the decode sizes its form from a
// first pass that takes any varint other than the byte 0x00 for a nonzero
// counter. An image that pads its zeros misleads that pass; the restored
// form must follow the values all the same.
func TestCountSketchUnmarshalPaddedZeros(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(41))
	src := m.New().(*CountSketch)
	src.Add(7, 3)
	src.Add(9, -2)
	canonical, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Header (2 bytes) and two one-byte geometry varints, then counters.
	padded := append([]byte(nil), canonical[:4]...)
	for _, b := range canonical[4:] {
		if b == 0 {
			padded = append(padded, 0x80, 0x00)
		} else {
			padded = append(padded, b)
		}
	}
	dst := m.New().(*CountSketch)
	if err := dst.UnmarshalBinary(padded); err != nil {
		t.Fatal(err)
	}
	if dst.mode != modeSparse || dst.Size() != src.Size() {
		t.Fatalf("restored mode %d Size %d, want sparse Size %d", dst.mode, dst.Size(), src.Size())
	}
	again, _ := dst.MarshalBinary()
	if !bytes.Equal(again, canonical) || dst.Estimate() != src.Estimate() {
		t.Fatal("padded image restored different counters")
	}
}
