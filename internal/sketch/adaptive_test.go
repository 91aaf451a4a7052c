package sketch

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// The items and dense forms of CountSketch must describe the same sketch:
// while a sketch keeps its pairs every answer is the exact one, and the
// counters those pairs stand for — the ones it will hold once promoted — are
// at every step the counters of a sketch that was dense from its first item.
// TestCountSketchFormsAgree drives that at random; the tests here pin the
// promotion point, composition, cancellation and the image, against the same
// reference.

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
			p := newRegister(m, twinOf(m))
			add := p.add
			if slotted {
				add = p.addSlots
			}
			want := m.itemsMax + target
			for x := 0; x < want; x++ {
				add(uint64(1000+x), int64(1+x%3))
			}
			step := fmt.Sprintf("slotted=%v itemsMax%+d", slotted, target)
			p.check(t, step)
			if items := !p.a.dense; items != (target <= 0) || (items && int(p.a.n) != want) {
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
			add(1001, -p.a.weightOf(1001))
			p.check(t, step+" cancelled")
			if int(p.a.n) != want-1 {
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
	ref := twinOf(m)
	out := newRegister(m, ref)
	for i := uint64(0); i < 400; i++ {
		sk := newRegister(m, ref)
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
	p := newRegister(m, twinOf(m))
	for x := uint64(0); x < 40; x++ {
		p.add(x*8, 3) // residents, clustered by the multiplicative hash
	}
	size := p.a.slots()
	for x := uint64(0); x < 20_000; x++ {
		p.add(1<<32+x, 1)
		p.add(1<<32+x, -1)
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
	ref := twinOf(m)
	p := newRegister(m, ref)
	p.huge = true
	for i, w := range []int64{1<<26 - 1, 1 << 31, 3037000500, -(1 << 40), 1<<61 - 1, -(1<<61 - 1)} {
		sk := newRegister(m, ref)
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
	p := newRegister(m, twinOf(m))
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
	ref := denseSketch(m)
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
	src := denseSketch(m)
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
