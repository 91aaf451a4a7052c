package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// The items and dense forms of CountSketch must describe the same sketch:
// while a sketch keeps its pairs every answer is the exact one, and the
// counters those pairs stand for — the ones it will hold once promoted — are
// at every step the counters of a sketch that was dense from its first
// item. These tests drive an adaptive sketch beside such a reference, and
// beside a plain frequency map, through the same operations.

// denseTwin returns a maker with m's geometry and row hashes whose sketches
// promote on their first item: the reference the items form is checked
// against.
func denseTwin(m *F2Maker) *F2Maker {
	return &F2Maker{
		width: m.width, depth: m.depth, rowH: m.rowH,
		medScratch: make([]float64, m.depth),
	}
}

// counters returns the dense counters c holds or, in the items form, the
// ones its pairs hash to — by evaluating each row's polynomial on its own,
// not through Slots.
func counters(c *CountSketch) []int64 {
	m := c.maker
	out := make([]int64, m.depth*m.width)
	if c.dense {
		for j := range out {
			out[j] = c.at(j)
		}
		return out
	}
	for k := range c.slots() {
		x, f := c.pairAt(k)
		for i := 0; f != 0 && i < m.depth; i++ {
			v := hash.Reduce61(m.rowH[i].Hash(x), uint64(2*m.width))
			out[i*m.width+int(v>>1)] += (int64(v&1)*2 - 1) * f
		}
	}
	return out
}

// pair is one adaptive sketch, its dense reference and the frequencies both
// were fed.
type pair struct {
	a, r *CountSketch
	freq map[uint64]int64
	// huge marks a run whose weights leave the range where the dense form's
	// float64 row sums are exact; there only the counters are compared.
	huge bool
}

func newPair(m, ref *F2Maker) pair {
	return pair{a: m.New().(*CountSketch), r: ref.New().(*CountSketch), freq: map[uint64]int64{}}
}

func (p pair) add(x uint64, w int64) {
	p.a.Add(x, w)
	p.r.Add(x, w)
	p.freq[x] += w
}

func (p pair) merge(t *testing.T, q pair) {
	t.Helper()
	if err := p.a.Merge(q.a); err != nil {
		t.Fatal(err)
	}
	if err := p.r.Merge(q.r); err != nil {
		t.Fatal(err)
	}
	if p.a == q.a {
		for x, f := range p.freq {
			p.freq[x] = 2 * f
		}
		return
	}
	for x, f := range q.freq {
		p.freq[x] += f
	}
}

// check compares the adaptive sketch with the reference and the brute-force
// frequencies, then round-trips it through its image.
func (p pair) check(t *testing.T, step string) {
	t.Helper()
	m := p.a.maker
	if got, want := counters(p.a), counters(p.r); !slices.Equal(got, want) {
		t.Fatalf("%s: counters differ from the dense reference (dense=%v)", step, p.a.dense)
	}
	distinct := 0
	f2 := new(big.Int)
	for _, f := range p.freq {
		if f != 0 {
			distinct++
			f2.Add(f2, new(big.Int).Mul(big.NewInt(f), big.NewInt(f)))
		}
	}
	exact := !p.huge
	if !p.a.dense {
		exact = true
		if p.a.n != distinct || p.a.n > m.itemsMax || p.a.Size() != 2*distinct {
			t.Fatalf("%s: items form with n=%d Size=%d, %d distinct items, itemsMax %d",
				step, p.a.n, p.a.Size(), distinct, m.itemsMax)
		}
		got := new(big.Int).Lsh(new(big.Int).SetUint64(p.a.f2hi), 64)
		if got.Add(got, new(big.Int).SetUint64(p.a.f2lo)); got.Cmp(f2) != 0 {
			t.Fatalf("%s: items Σf² = %v, brute force %v", step, got, f2)
		}
		want, _ := new(big.Float).SetInt(f2).Float64()
		if est := p.a.Estimate(); math.Abs(est-want) > want*0x1p-52 {
			t.Fatalf("%s: items Estimate %v, brute force %v", step, est, want)
		}
		for x := uint64(0); x < 12; x++ {
			if got := p.a.EstimateItem(x); got != float64(p.freq[x]) {
				t.Fatalf("%s: items EstimateItem(%d) = %v, brute force %d", step, x, got, p.freq[x])
			}
		}
		if b := p.a.ThresholdBudget(1 << 40); b > int64(m.itemsMax-p.a.n) {
			t.Fatalf("%s: budget %d reaches past the %d pairs left before promotion", step, b, m.itemsMax-p.a.n)
		}
	} else {
		if p.a.Size() != m.width*m.depth || p.a.tab != nil || !p.r.dense {
			t.Fatalf("%s: dense Size = %d, table %d slots, reference dense=%v",
				step, p.a.Size(), len(p.a.tab), p.r.dense)
		}
		// A float64 sum of squared integers below 2^53 is exact in every
		// order, so there the promoted sketch and the reference agree to
		// the bit however each got its rows.
		for _, v := range p.r.rowF2 {
			exact = exact && v < 1<<53
		}
		if exact {
			for i, v := range p.a.rowF2 {
				if r := p.r.rowF2[i]; v != r {
					t.Fatalf("%s: rowF2[%d] = %v, dense %v", step, i, v, r)
				}
			}
			if a, r := p.a.Estimate(), p.r.Estimate(); a != r {
				t.Fatalf("%s: Estimate %v, dense %v", step, a, r)
			}
			for _, thresh := range []float64{1, 64, 1 << 20, 1 << 60} {
				if a, r := p.a.ThresholdBudget(thresh), p.r.ThresholdBudget(thresh); a != r {
					t.Fatalf("%s: ThresholdBudget(%g) = %d, dense %d", step, thresh, a, r)
				}
			}
		}
		for x := uint64(0); x < 12; x++ {
			if a, r := p.a.EstimateItem(x), p.r.EstimateItem(x); a != r {
				t.Fatalf("%s: EstimateItem(%d) = %v, dense %v", step, x, a, r)
			}
		}
	}

	// The image: marshaling leaves the sketch alone, a dense sketch's image
	// is the reference's, and the decoded copy is the same sketch in the
	// same form and encodes to the same bytes.
	dense, n, size := p.a.dense, p.a.n, p.a.Size()
	img, err := p.a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if p.a.dense != dense || p.a.n != n || p.a.Size() != size {
		t.Fatalf("%s: MarshalBinary changed the sketch", step)
	}
	if dense {
		if rimg, _ := p.r.MarshalBinary(); !bytes.Equal(img, rimg) {
			t.Fatalf("%s: dense image differs from the reference's", step)
		}
	}
	// Decode over a populated receiver: the image must replace its state.
	dst := m.New().(*CountSketch)
	dst.Add(99, 5)
	if err := dst.UnmarshalBinary(img); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if dst.dense != dense || dst.Size() != size || (exact && dst.Estimate() != p.a.Estimate()) ||
		!slices.Equal(counters(dst), counters(p.a)) {
		t.Fatalf("%s: restored dense=%v Size=%d Estimate=%v, live dense=%v Size=%d Estimate=%v",
			step, dst.dense, dst.Size(), dst.Estimate(), dense, size, p.a.Estimate())
	}
	if again, _ := dst.MarshalBinary(); !bytes.Equal(again, img) {
		t.Fatalf("%s: unmarshal → marshal is not the identity", step)
	}
	m.Recycle(dst)
}

// TestCountSketchFormsAgree runs seeded random operation sequences over a
// few registers, so merges meet every (receiver, operand) form pair.
func TestCountSketchFormsAgree(t *testing.T) {
	type formPair struct{ recv, op bool } // true = items form
	seen := map[formPair]int{}
	promoted := 0
	for _, g := range []struct{ width, depth int }{{64, 3}, {356, 4}, {16, 1}, {50, 5}} {
		for seed := uint64(1); seed <= 12; seed++ {
			m := NewF2Maker(g.width, g.depth, hash.New(1000+seed))
			ref := denseTwin(m)
			rng := hash.New(seed)
			// Weights: unit inserts, small signed updates, or values whose
			// squares leave the range where float sums are exact.
			weight := func() int64 {
				switch rng.Uint64n(10) {
				case 0:
					if seed%3 == 0 {
						return int64(rng.Uint64n(1<<40)) - 1<<39
					}
				case 1, 2, 3:
					return int64(rng.Uint64n(7)) - 3
				}
				return 1
			}
			fresh := func() pair {
				p := newPair(m, ref)
				p.huge = seed%3 == 0
				return p
			}
			regs := []pair{fresh(), fresh(), fresh()}
			domain := 4 + rng.Uint64n(uint64(m.itemsMax))
			var slots Slots
			for step := 0; step < 400; step++ {
				i := int(rng.Uint64n(3))
				p := &regs[i]
				wasDense := p.a.dense
				var what string
				switch op := rng.Uint64n(21); {
				case op < 8:
					x, w := rng.Uint64n(domain), weight()
					what = fmt.Sprintf("Add(%d,%d)", x, w)
					p.add(x, w)
				case op < 13:
					x, w := rng.Uint64n(domain), weight()
					what = fmt.Sprintf("AddSlots(%d,%d)", x, w)
					slots = m.Slots(x, slots[:0])
					p.a.AddSlots(slots, w)
					p.r.AddSlots(slots, w)
					p.freq[x] += w
				case op < 14:
					// Delete what was just added: a pair whose weight
					// returns to zero leaves the table.
					x := rng.Uint64n(domain)
					what = fmt.Sprintf("Add(%d,±2)", x)
					p.add(x, 2)
					p.add(x, -2)
				case op < 17:
					q := regs[(i+1+int(rng.Uint64n(2)))%3]
					what = fmt.Sprintf("Merge(dense=%v <- dense=%v)", p.a.dense, q.a.dense)
					seen[formPair{!p.a.dense, !q.a.dense}]++
					p.merge(t, q)
				case op < 18:
					what = "Recycle+New"
					m.Recycle(p.a)
					ref.Recycle(p.r)
					*p = fresh()
					if p.a.dense || p.a.Size() != 0 || p.a.Estimate() != 0 {
						t.Fatalf("recycled sketch not empty: dense=%v size %d", p.a.dense, p.a.Size())
					}
				case op < 19:
					what = "Merge(self)"
					p.merge(t, *p)
				case op < 20:
					// A burst of fresh items, to cross the promotion point
					// of the wider geometries.
					k := rng.Uint64n(64)
					what = fmt.Sprintf("burst of %d", k)
					for base := rng.Uint64(); k > 0; k-- {
						p.add(base+k, 1)
					}
				default:
					what = "Marshal+Unmarshal"
					for _, c := range []**CountSketch{&p.a, &p.r} {
						img, err := (*c).MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						dst := (*c).maker.New().(*CountSketch)
						if err := dst.UnmarshalBinary(img); err != nil {
							t.Fatal(err)
						}
						*c = dst
					}
				}
				if p.a.dense && !wasDense {
					promoted++
				}
				p.check(t, fmt.Sprintf("%dx%d seed %d step %d %s", g.width, g.depth, seed, step, what))
			}
		}
	}
	for _, fp := range []formPair{{true, true}, {true, false}, {false, true}, {false, false}} {
		if seen[fp] == 0 {
			t.Errorf("no merge with receiver items=%v, operand items=%v was generated", fp.recv, fp.op)
		}
	}
	if promoted < 20 {
		t.Errorf("only %d promotions were generated", promoted)
	}
}

// TestCountSketchPromotionPoint stops a sketch one pair below the promotion
// point, at it and one past it, by Add and by AddSlots, and checks the form
// on each side of Marshal.
func TestCountSketchPromotionPoint(t *testing.T) {
	const width, depth = 64, 3
	for _, slotted := range []bool{false, true} {
		for _, target := range []int{-1, 0, 1} { // pairs relative to itemsMax
			m := NewF2Maker(width, depth, hash.New(77))
			if m.itemsMax != width*depth/itemsDivisor {
				t.Fatalf("itemsMax = %d", m.itemsMax)
			}
			p := newPair(m, denseTwin(m))
			add := func(x uint64, w int64) {
				if !slotted {
					p.add(x, w)
					return
				}
				slots := m.Slots(x, nil)
				p.a.AddSlots(slots, w)
				p.r.AddSlots(slots, w)
				p.freq[x] += w
			}
			want := m.itemsMax + target
			for x := 0; x < want; x++ {
				add(uint64(1000+x), int64(1+x%3))
			}
			step := fmt.Sprintf("slotted=%v itemsMax%+d", slotted, target)
			p.check(t, step)
			if items := !p.a.dense; items != (target <= 0) || (items && p.a.n != want) {
				t.Fatalf("%s: dense=%v with n=%d", step, p.a.dense, p.a.n)
			}
			if target > 0 {
				continue
			}
			// Updating a held pair never promotes, even at the limit.
			add(1000, 7)
			p.check(t, step+" revisit")
			if p.a.dense {
				t.Fatalf("%s: an update to a held pair promoted", step)
			}
			if target < 0 {
				continue
			}
			// A pair cancelling to zero is not stored: it makes room for
			// another without promoting, and the next one after that
			// promotes.
			add(1001, -p.freq[1001])
			p.check(t, step+" cancelled")
			if p.a.n != want-1 {
				t.Fatalf("after cancel n=%d, want %d", p.a.n, want-1)
			}
			add(5000, 1)
			p.check(t, step+" refilled")
			if p.a.dense {
				t.Fatal("a cancelled pair still counted toward promotion")
			}
			add(5001, 1)
			p.check(t, step+" promoted")
			if !p.a.dense {
				t.Fatal("one pair past itemsMax did not promote")
			}
		}
	}
}

// TestCountSketchItemsMergeComposes folds many small sketches into one, as
// Algorithm 3 composes a query: the composition is the sketch of the union —
// exact while it keeps its pairs, the reference's counters and estimate
// after — and a recycled operand never leaks into it.
func TestCountSketchItemsMergeComposes(t *testing.T) {
	m := NewF2Maker(356, 4, hash.New(5))
	ref := denseTwin(m)
	out := newPair(m, ref)
	for i := uint64(0); i < 400; i++ {
		sk := newPair(m, ref)
		sk.add(i, 1)
		sk.add(i*7919, 2)
		out.merge(t, sk)
		m.Recycle(sk.a)
		ref.Recycle(sk.r)
		out.check(t, fmt.Sprintf("merge %d", i))
	}
	if !out.a.dense {
		t.Fatal("800 pairs left the composition in the items form")
	}
}

// TestCountSketchItemsTableBounded: churn that keeps creating and
// cancelling pairs must not grow the table, and leaves every probe chain
// intact.
func TestCountSketchItemsTableBounded(t *testing.T) {
	m := NewF2Maker(356, 4, hash.New(9))
	p := newPair(m, denseTwin(m))
	for x := uint64(0); x < 40; x++ {
		p.add(x*8, 3) // residents, clustered by the multiplicative hash
	}
	size := p.a.slots()
	for x := uint64(0); x < 20_000; x++ {
		p.a.Add(1<<32+x, 1)
		p.a.Add(1<<32+x, -1)
		if p.a.slots() != size {
			t.Fatalf("table went from %d to %d slots", size, p.a.slots())
		}
	}
	p.check(t, "after churn")
	for x := uint64(0); x < 40; x++ {
		p.add(x*8, -3)
	}
	p.check(t, "emptied")
	if p.a.dense || p.a.Size() != 0 || p.a.Estimate() != 0 {
		t.Fatalf("dense=%v size %d estimate %v after full cancellation", p.a.dense, p.a.Size(), p.a.Estimate())
	}
	for j, w := range p.a.tab {
		if w != 0 {
			t.Fatalf("word %d = %#x left behind", j, w)
		}
	}
}

// TestCountSketchMergeExactnessLimits walks weights up to the magnitudes
// where float64 sums of squares stop being exact and past where a square
// fits in 64 bits: the items form keeps Σf² as a 128-bit integer, so its
// answers stay the brute-force ones, and promotion still lands on the
// reference's counters.
func TestCountSketchMergeExactnessLimits(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(21))
	ref := denseTwin(m)
	p := newPair(m, ref)
	p.huge = true
	for i, w := range []int64{1<<26 - 1, 1 << 31, 3037000500, -(1 << 40), 1<<61 - 1, -(1<<61 - 1)} {
		sk := newPair(m, ref)
		sk.add(uint64(i), w)
		sk.add(uint64(100+i), -w)
		p.merge(t, sk)
		p.check(t, fmt.Sprintf("merge of ±%d", w))
		p.merge(t, sk)
		p.check(t, fmt.Sprintf("second merge of ±%d", w))
	}
	if p.a.dense || p.a.f2hi == 0 {
		t.Fatalf("dense=%v Σf² high word %d: the test no longer leaves 64 bits", p.a.dense, p.a.f2hi)
	}
	for x := uint64(1000); !p.a.dense; x++ {
		p.add(x, 1<<30)
		p.check(t, fmt.Sprintf("grow to %d", x))
	}
}

// TestCountSketchMarshalSettlesForm: the image records the form. A dense
// sketch whose counters cancel back under the promotion point stays dense,
// and so does its restored copy; marshaling changes neither.
func TestCountSketchMarshalSettlesForm(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(31))
	p := newPair(m, denseTwin(m))
	for x := uint64(0); x <= uint64(m.itemsMax); x++ {
		p.add(x, 1)
	}
	if !p.a.dense {
		t.Fatalf("items form after %d items", m.itemsMax+1)
	}
	for x := uint64(5); x <= uint64(m.itemsMax); x++ {
		p.add(x, -1)
	}
	p.check(t, "cancelled")
	img, err := p.a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := m.New().(*CountSketch)
	if err := dst.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if want := m.width * m.depth; !p.a.dense || p.a.Size() != want || !dst.dense || dst.Size() != want {
		t.Fatalf("live dense=%v Size %d, restored dense=%v Size %d, want dense %d",
			p.a.dense, p.a.Size(), dst.dense, dst.Size(), want)
	}
	// Reset is the one way back.
	m.Recycle(p.a)
	if got := m.New().(*CountSketch); got != p.a || got.dense || got.Size() != 0 {
		t.Fatalf("recycled sketch dense=%v Size %d", got.dense, got.Size())
	}
}

// TestCountSketchCanonicalImage: an items-form image depends on the pairs
// alone — not on the order they arrived in, the table's size, or pairs that
// came and went.
func TestCountSketchCanonicalImage(t *testing.T) {
	m := NewF2Maker(356, 4, hash.New(41))
	xs := make([]uint64, 150)
	rng := hash.New(3)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	forward := m.New().(*CountSketch)
	for i, x := range xs {
		forward.Add(x, int64(i%5)-7)
	}
	backward := m.New().(*CountSketch)
	for x := uint64(0); x < 150; x++ {
		backward.Add(x, 4) // grows the table past what 150 pairs need
	}
	for i := len(xs) - 1; i >= 0; i-- {
		backward.Add(xs[i], 1)
		backward.Add(xs[i], int64(i%5)-8)
	}
	for x := uint64(0); x < 150; x++ {
		backward.Add(x, -4)
	}
	if forward.dense || backward.dense {
		t.Fatal("promoted; the test is about the items form")
	}
	if len(forward.tab) == len(backward.tab) {
		t.Fatal("both tables have the same size; the test lost its point")
	}
	a, _ := forward.MarshalBinary()
	b, _ := backward.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("two insertion orders of one multiset marshal differently")
	}
	appended, _ := forward.AppendBinary([]byte("prefix"))
	if !bytes.Equal(appended, append([]byte("prefix"), a...)) {
		t.Fatal("AppendBinary does not append the MarshalBinary image")
	}
}

// TestCountSketchUnmarshalVersion2: an image written before the items form
// existed is every counter in index order. It restores as a dense sketch
// with the same counters and estimates, and re-marshals in today's format.
func TestCountSketchUnmarshalVersion2(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(43))
	ref := denseTwin(m).New().(*CountSketch)
	live := m.New().(*CountSketch)
	for x := uint64(0); x < 10; x++ {
		ref.Add(x, int64(x)-3)
		live.Add(x, int64(x)-3)
	}
	v2 := []byte{2, kindCountSketch, byte(m.depth), byte(m.width)}
	for _, v := range counters(ref) {
		v2 = appendI64(v2, v)
	}
	dst := m.New().(*CountSketch)
	if err := dst.UnmarshalBinary(v2); err != nil {
		t.Fatal(err)
	}
	if !dst.dense || !slices.Equal(counters(dst), counters(ref)) || dst.Estimate() != ref.Estimate() {
		t.Fatalf("restored dense=%v Estimate %v, want dense Estimate %v", dst.dense, dst.Estimate(), ref.Estimate())
	}
	for x := uint64(0); x < 12; x++ {
		if got, want := dst.EstimateItem(x), ref.EstimateItem(x); got != want {
			t.Fatalf("EstimateItem(%d) = %v, want %v", x, got, want)
		}
	}
	// The restored sketch merges with one that kept its pairs.
	if err := dst.Merge(live); err != nil {
		t.Fatal(err)
	}
	if err := ref.Merge(ref); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(counters(dst), counters(ref)) {
		t.Fatal("version-2 sketch merged with an items-form one diverged")
	}
	again, _ := dst.MarshalBinary()
	want, _ := ref.MarshalBinary()
	if !bytes.Equal(again, want) || again[0] != marshalVersion {
		t.Fatal("re-marshaled image is not today's dense image")
	}
}

// TestCountSketchUnmarshalPaddedZeros: varints may be padded without
// changing their value. A dense image that pads its zeros, in either
// version, restores the same counters and re-marshals canonically.
func TestCountSketchUnmarshalPaddedZeros(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(41))
	src := denseTwin(m).New().(*CountSketch)
	src.Add(7, 3)
	src.Add(9, -2)
	canonical, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Header (2 bytes), two one-byte geometry varints and the form byte,
	// then counters.
	for _, version := range []byte{2, marshalVersion} {
		padded := append([]byte{version}, canonical[1:4]...)
		if version >= 3 {
			padded = append(padded, canonical[4])
		}
		for _, b := range canonical[5:] {
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
		again, _ := dst.MarshalBinary()
		if !bytes.Equal(again, canonical) || dst.Estimate() != src.Estimate() {
			t.Fatalf("padded version-%d image restored different counters", version)
		}
	}
}

// TestCountSketchUnmarshalRejectsNonCanonicalItems: an items-form image is
// accepted only as AppendBinary writes it.
func TestCountSketchUnmarshalRejectsNonCanonicalItems(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(47))
	head := []byte{marshalVersion, kindCountSketch, byte(m.depth), byte(m.width), formItems}
	image := func(pairs ...int64) []byte {
		img := appendU64(append([]byte(nil), head...), uint64(len(pairs)/2))
		for i := 0; i < len(pairs); i += 2 {
			img = appendI64(appendU64(img, uint64(pairs[i])), pairs[i+1])
		}
		return img
	}
	tooMany := make([]int64, 0, 2*(m.itemsMax+1))
	for x := 0; x <= m.itemsMax; x++ {
		tooMany = append(tooMany, int64(x), 1)
	}
	for name, img := range map[string][]byte{
		"descending x":    image(5, 1, 3, 1),
		"repeated x":      image(5, 1, 5, 1),
		"zero weight":     image(5, 0),
		"past itemsMax":   image(tooMany...),
		"forged count":    appendU64(append([]byte(nil), head...), 1<<40),
		"truncated":       image(5, 1, 6, 1)[:len(image(5, 1, 6, 1))-1],
		"trailing bytes":  append(image(5, 1), 0),
		"unknown form":    {marshalVersion, kindCountSketch, byte(m.depth), byte(m.width), 2, 0},
		"future version":  append([]byte{marshalVersion + 1}, image(5, 1)[1:]...),
		"ancient version": append([]byte{1}, image(5, 1)[1:]...),
	} {
		if err := m.New().(*CountSketch).UnmarshalBinary(img); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := m.New().(*CountSketch)
	if err := ok.UnmarshalBinary(image(3, -2, 5, 1)); err != nil || ok.Estimate() != 5 {
		t.Fatalf("canonical image: err %v, Estimate %v", err, ok.Estimate())
	}
}
