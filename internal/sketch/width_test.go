package sketch

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"unsafe"

	"github.com/streamagg/correlated/internal/hash"
)

// A dense CountSketch stores its counters at one, two, four or eight bytes and
// nothing may depend on which. These tests drive a sketch beside a twin held
// at int64 — the array every sketch had before there were widths — through
// weights that cross the int8, int16 and int32 boundaries in both directions.

// wideTwin returns a maker with m's geometry, row hashes and promotion point,
// for sketches the test widens to int64 after every step.
func wideTwin(m *F2Maker) *F2Maker {
	t := denseTwin(m)
	t.itemsMax = m.itemsMax
	return t
}

// widenFully takes a dense sketch to int64.
func widenFully(c *CountSketch) {
	for c.dense && c.cw < 8 {
		c.widen()
	}
}

// widthFor returns the bytes the largest of vs needs.
func widthFor(vs []int64) uint8 {
	cw := uint8(1)
	for _, v := range vs {
		switch {
		case v < math.MinInt32 || v > math.MaxInt32:
			return 8
		case v < math.MinInt16 || v > math.MaxInt16:
			cw = 4
		case v < math.MinInt8 || v > math.MaxInt8:
			cw = max(cw, 2)
		}
	}
	return cw
}

// imageHead is the start of an image of a sketch of m in the given form.
func imageHead(m *F2Maker, form byte) []byte {
	img := []byte{marshalVersion, kindCountSketch}
	return append(appendU64(appendU64(img, uint64(m.depth)), uint64(m.width)), form)
}

// denseImage is the image of a dense sketch of m holding vs.
func denseImage(m *F2Maker, vs []int64) []byte {
	img := imageHead(m, formDense)
	for _, v := range vs {
		img = appendI64(img, v)
	}
	return img
}

// boundaryImages returns dense images of m whose counters sit on each side
// of every width boundary: alone in an otherwise zero array, and all
// together.
func boundaryImages(m *F2Maker) [][]byte {
	edges := []int64{
		math.MaxInt8, -math.MaxInt8, math.MaxInt8 + 1, math.MinInt8, math.MinInt8 - 1,
		math.MaxInt16, -math.MaxInt16, math.MaxInt16 + 1, math.MinInt16, math.MinInt16 - 1,
		math.MaxInt32, -math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1,
		math.MaxInt64, math.MinInt64,
	}
	var images [][]byte
	all := make([]int64, m.depth*m.width)
	for i, v := range edges {
		one := make([]int64, len(all))
		one[(i*7)%len(one)] = v
		images = append(images, denseImage(m, one))
		all[i] = v
	}
	return append(images, denseImage(m, all))
}

// sameSketch fails unless narrow and wide — one sketch at whatever width it
// has reached and its twin at int64, or one with its table as it grew and its
// twin's cut to fit — agree on everything a caller can see.
func sameSketch(t *testing.T, step string, narrow, wide *CountSketch) {
	t.Helper()
	if narrow.dense != wide.dense || narrow.Size() != wide.Size() {
		t.Fatalf("%s: dense=%v Size %d, twin dense=%v Size %d",
			step, narrow.dense, narrow.Size(), wide.dense, wide.Size())
	}
	got, want := counters(narrow), counters(wide)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: counters differ from the twin's (stored at %d bytes)", step, narrow.cw)
	}
	if narrow.dense && narrow.cw < widthFor(got) {
		t.Fatalf("%s: stored at %d bytes, the counters need %d", step, narrow.cw, widthFor(got))
	}
	if a, r := narrow.Estimate(), wide.Estimate(); a != r {
		t.Fatalf("%s: Estimate %v, twin %v", step, a, r)
	}
	for x := uint64(0); x < 16; x++ {
		if a, r := narrow.EstimateItem(x), wide.EstimateItem(x); a != r {
			t.Fatalf("%s: EstimateItem(%d) = %v, twin %v", step, x, a, r)
		}
	}
	for _, thresh := range []float64{1, 1 << 20, 1 << 40, 1 << 62, 1e30} {
		if a, r := narrow.ThresholdBudget(thresh), wide.ThresholdBudget(thresh); a != r {
			t.Fatalf("%s: ThresholdBudget(%g) = %d, twin %d", step, thresh, a, r)
		}
	}
	img, err := narrow.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if wimg, _ := wide.MarshalBinary(); !bytes.Equal(img, wimg) {
		t.Fatalf("%s: image differs from the twin's", step)
	}
}

// TestCountSketchWidthsAgree runs seeded random operation sequences over a
// few registers. Weights come in the magnitudes that matter — units, either
// side of 2^7, of 2^15 and of 2^31, 2^40 — signed, over a domain small
// enough that counters climb past a boundary and are brought back under it.
func TestCountSketchWidthsAgree(t *testing.T) {
	type reg struct{ a, r *CountSketch }
	reached := map[uint8]int{} // widths seen on the narrow side
	shrunk := 0                // steps that left a sketch wider than its counters need
	for _, g := range []struct{ width, depth int }{{16, 3}, {64, 4}, {356, 4}, {8, 1}} {
		for seed := uint64(1); seed <= 10; seed++ {
			m := NewF2Maker(g.width, g.depth, hash.New(2000+seed))
			twin := wideTwin(m)
			rng := hash.New(seed)
			// The runs stop in turn at weights around 2^7, 2^15, 2^31 and
			// 2^40, so sketches also spend time at the narrower widths.
			tier := seed % 4
			weight := func() int64 {
				var w int64
				switch k := rng.Uint64n(32); {
				case k == 0 && tier == 3:
					w = 1 << 40
				case k <= 1 && tier >= 2:
					w = 1<<31 - 2 + int64(rng.Uint64n(5))
				case k <= 3 && tier >= 1:
					w = 1<<15 - 2 + int64(rng.Uint64n(5))
				case k <= 6 && tier >= 1:
					w = int64(rng.Uint64n(1 << 13))
				case k <= 8 && (tier >= 1 || k == 8):
					w = 1<<7 - 2 + int64(rng.Uint64n(5))
				default:
					w = 1 + int64(rng.Uint64n(3))
				}
				if rng.Uint64n(2) == 0 {
					w = -w
				}
				return w
			}
			fresh := func() reg { return reg{m.New().(*CountSketch), twin.New().(*CountSketch)} }
			regs := []reg{fresh(), fresh(), fresh()}
			// A domain on either side of the promotion point, so both
			// forms take the weights.
			domain := uint64(m.itemsMax)/2 + 1 + rng.Uint64n(uint64(m.itemsMax)+4)
			var slots Slots
			for step := 0; step < 300; step++ {
				i := int(rng.Uint64n(3))
				p := &regs[i]
				kept, wasWidth := true, p.a.cw // kept: the op does not Reset p.a
				var what string
				switch op := rng.Uint64n(20); {
				case op < 7:
					x, w := rng.Uint64n(domain), weight()
					what = fmt.Sprintf("Add(%d,%d)", x, w)
					p.a.Add(x, w)
					p.r.Add(x, w)
				case op < 12:
					x, w := rng.Uint64n(domain), weight()
					what = fmt.Sprintf("AddSlots(%d,%d)", x, w)
					slots = m.Slots(x, slots[:0])
					p.a.AddSlots(slots, w)
					p.r.AddSlots(slots, w)
				case op < 13:
					// A spike and straight back: the counters return to
					// where they were, the width does not.
					x, w := rng.Uint64n(domain), int64(1)<<(7+8*rng.Uint64n(4))
					what = fmt.Sprintf("Add(%d,±%d)", x, w)
					for _, c := range []*CountSketch{p.a, p.r} {
						c.Add(x, w)
						c.Add(x, -w)
					}
				case op < 16:
					q := regs[(i+int(rng.Uint64n(3)))%3] // itself one time in three
					what = fmt.Sprintf("Merge(%d bytes <- %d bytes)", p.a.cw, q.a.cw)
					if err := p.a.Merge(q.a); err != nil {
						t.Fatal(err)
					}
					if err := p.r.Merge(q.r); err != nil {
						t.Fatal(err)
					}
				case op < 18:
					what, kept = "Compose", false
					out := reg{
						Compose(m, []Sketch{regs[0].a, regs[1].a, regs[2].a}).(*CountSketch),
						Compose(twin, []Sketch{regs[0].r, regs[1].r, regs[2].r}).(*CountSketch),
					}
					m.Recycle(p.a)
					twin.Recycle(p.r)
					*p = out
				case op < 19:
					what, kept = "Recycle+New", false
					m.Recycle(p.a)
					twin.Recycle(p.r)
					*p = fresh()
					if p.a.dense || p.a.cw != 0 || p.a.wideSlots || p.a.Bytes() != 8*p.a.slots() {
						t.Fatalf("recycled sketch dense=%v at %d bytes a counter, holding %d", p.a.dense, p.a.cw, p.a.Bytes())
					}
				default:
					what, kept = "Marshal+Unmarshal", false // which re-sums the rows, so both sides
					for _, c := range []**CountSketch{&p.a, &p.r} {
						img, err := (*c).MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						dst := (*c).maker.New().(*CountSketch)
						if err := dst.UnmarshalBinary(img); err != nil {
							t.Fatal(err)
						}
						if dst.dense && dst.cw != widthFor(counters(dst)) {
							t.Fatalf("decoded at %d bytes a counter, the counters need %d", dst.cw, widthFor(counters(dst)))
						}
						(*c).maker.Recycle(*c)
						*c = dst
					}
				}
				widenFully(p.r)
				at := fmt.Sprintf("%dx%d seed %d step %d %s", g.width, g.depth, seed, step, what)
				sameSketch(t, at, p.a, p.r)
				if kept && p.a.cw < wasWidth {
					t.Fatalf("%s: went from %d bytes a counter to %d without a Reset", at, wasWidth, p.a.cw)
				}
				if p.a.dense {
					reached[p.a.cw]++
					if p.a.Bytes() != int(p.a.cw)*m.width*m.depth+8*m.depth {
						t.Fatalf("%s: Bytes = %d at %d bytes a counter", at, p.a.Bytes(), p.a.cw)
					}
					if p.a.cw > widthFor(counters(p.a)) {
						shrunk++
					}
				}
			}
		}
	}
	for _, cw := range []uint8{1, 2, 4, 8} {
		if reached[cw] < 50 {
			t.Errorf("only %d steps ended on a sketch at %d bytes a counter", reached[cw], cw)
		}
	}
	if shrunk < 50 {
		t.Errorf("only %d steps left counters that had come back under a boundary", shrunk)
	}
}

// TestCountSketchRowSumsSurviveLargeWeights: the incremental row sums must
// be the sums of squares of the counters — what a restart, which re-sums,
// will say — also when counter × weight leaves 62 bits.
func TestCountSketchRowSumsSurviveLargeWeights(t *testing.T) {
	for _, w := range []int64{1 << 31, 3e9, -3e9, 1 << 33, 1 << 40, -(1 << 45)} {
		m := denseTwin(NewF2Maker(64, 3, hash.New(61)))
		c := m.New().(*CountSketch)
		var slots Slots
		for rep := 0; rep < 3; rep++ {
			for x := uint64(0); x < 10; x++ {
				c.Add(x, w)
				slots = m.Slots(x+5, slots[:0])
				c.AddSlots(slots, w)
			}
		}
		incremental := slices.Clone(c.rowF2)
		c.sumSquares()
		for i, want := range c.rowF2 {
			if got := incremental[i]; math.Abs(got-want) > want*1e-12 {
				t.Fatalf("weight %d: incremental rowF2[%d] = %g, the counters' squares sum to %g", w, i, got, want)
			}
		}
	}
	// The case from the field: two adds of 3e9 to one item.
	c := denseTwin(NewF2Maker(64, 3, hash.New(61))).New().(*CountSketch)
	c.Add(7, 3e9)
	c.Add(7, 3e9)
	if got := c.Estimate(); got != 3.6e19 {
		t.Fatalf("Estimate after Add(7, 3e9) twice = %g, want 3.6e19", got)
	}
}

// TestCountSketchUnmarshalBoundaryCounters: images whose counters sit on the
// width boundaries decode to exactly those counters, in the narrowest array
// that holds them, and encode back to the same bytes — as does the same
// image decoded over a sketch that was wider or narrower before.
func TestCountSketchUnmarshalBoundaryCounters(t *testing.T) {
	m := NewF2Maker(16, 3, hash.New(7))
	images := boundaryImages(m)
	c := m.New().(*CountSketch)
	for round := 0; round < 2; round++ { // the second pass decodes over recycled arrays
		for i, img := range images {
			if err := c.UnmarshalBinary(img); err != nil {
				t.Fatalf("image %d: %v", i, err)
			}
			vs := counters(c)
			if !c.dense || c.cw != widthFor(vs) {
				t.Fatalf("image %d: dense=%v at %d bytes a counter, the counters need %d", i, c.dense, c.cw, widthFor(vs))
			}
			if again, _ := c.MarshalBinary(); !bytes.Equal(again, img) || !bytes.Equal(denseImage(m, vs), img) {
				t.Fatalf("image %d: decode → encode is not the identity", i)
			}
		}
	}
}

// An items table likewise stores a slot at eight bytes or sixteen and nothing
// may depend on which. The tests below drive a sketch beside a twin whose
// table the test widens after every step — the table every sketch had before
// there were widths — over identifiers on both sides of 2^32 and weights that
// cross ±2^31 in both directions, and beside a model of what the table should
// hold and of whether its history has forced the wide slots.

// fitsNarrow reports whether the pair fits an eight-byte slot.
func fitsNarrow(x uint64, f int64) bool { return x>>32 == 0 && f == int64(int32(f)) }

// needsWide reports whether some pair c holds does not fit an eight-byte slot.
func needsWide(c *CountSketch) bool {
	for k := range c.slots() {
		if x, f := c.pairAt(k); f != 0 && !fitsNarrow(x, f) {
			return true
		}
	}
	return false
}

// widenTableFully takes an items-form sketch's table to sixteen-byte slots.
func widenTableFully(c *CountSketch) {
	if !c.dense && !c.wideSlots {
		c.widenTable()
	}
}

// tableModel is the pairs an items-form sketch should hold, and whether some
// pair stored since its last Reset did not fit a narrow slot.
type tableModel struct {
	freq map[uint64]int64
	wide bool
}

func (m *tableModel) add(x uint64, w int64) {
	f := m.freq[x] + w
	if f == 0 {
		delete(m.freq, x)
		return
	}
	m.freq[x] = f
	m.wide = m.wide || !fitsNarrow(x, f)
}

// merge adds o's pairs, one add each, as Merge does.
func (m *tableModel) merge(o *tableModel) {
	for x, f := range maps.Clone(o.freq) { // o may be m
		m.add(x, f)
	}
}

// xf is one pair of an items-form image.
type xf struct {
	x uint64
	f int64
}

// itemsImage is the image of an items-form sketch of m holding the pairs,
// given in ascending x.
func itemsImage(m *F2Maker, pairs ...xf) []byte {
	img := appendU64(imageHead(m, formItems), uint64(len(pairs)))
	for _, p := range pairs {
		img = appendI64(appendU64(img, p.x), p.f)
	}
	return img
}

// boundaryPairImages returns items-form images of m whose pairs sit on each
// side of the slot-width boundaries: every identifier edge with every weight
// edge alone, then all identifier edges together.
func boundaryPairImages(m *F2Maker) [][]byte {
	xs := []uint64{0, 1<<32 - 1, 1 << 32, math.MaxUint64}
	fs := []int64{1, math.MaxInt32, -math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1, math.MaxInt64, math.MinInt64}
	var images [][]byte
	for _, x := range xs {
		for _, f := range fs {
			images = append(images, itemsImage(m, xf{x, f}))
		}
	}
	for _, f := range fs {
		images = append(images, itemsImage(m, xf{xs[0], f}, xf{xs[1], -f | 1}, xf{xs[2], f}, xf{xs[3], 1}))
	}
	return images
}

// TestCountSketchTableWidthsAgree runs seeded random operation sequences over
// a few registers. A third of the runs keep every identifier below 2^32, so
// only weights widen a table; a third keep the weights small, so only
// identifiers do; the rest mix both.
func TestCountSketchTableWidthsAgree(t *testing.T) {
	type reg struct {
		a, r  *CountSketch
		model tableModel
	}
	var narrow, wide, shrunk, promoted int // steps that ended on each; shrunk: wide, over pairs that no longer need it
	for _, g := range []struct{ width, depth int }{{16, 3}, {64, 4}, {356, 4}} {
		for seed := uint64(1); seed <= 12; seed++ {
			m := NewF2Maker(g.width, g.depth, hash.New(3000+seed))
			twin := wideTwin(m)
			rng := hash.New(seed)
			weight := func() int64 {
				var w int64
				switch k := rng.Uint64n(16); {
				case k == 0 && seed%3 == 2:
					w = 1 << 40
				case k <= 2 && seed%3 != 1:
					w = 1<<31 - 2 + int64(rng.Uint64n(5))
				case k <= 4:
					w = int64(rng.Uint64n(1 << 13))
				default:
					w = 1 + int64(rng.Uint64n(3))
				}
				if rng.Uint64n(2) == 0 {
					w = -w
				}
				return w
			}
			// A domain on either side of the promotion point and, unless the
			// run is about weights alone, of 2^32.
			domain := uint64(m.itemsMax)/2 + 1 + rng.Uint64n(uint64(m.itemsMax)+4)
			ident := func() uint64 {
				x := rng.Uint64n(domain)
				if seed%3 != 0 {
					x += 1<<32 - domain/2
				}
				return x
			}
			model := func() tableModel { return tableModel{freq: map[uint64]int64{}} }
			fresh := func() reg { return reg{m.New().(*CountSketch), twin.New().(*CountSketch), model()} }
			regs := []reg{fresh(), fresh(), fresh()}
			recycle := func(p *reg) {
				m.Recycle(p.a)
				twin.Recycle(p.r)
			}
			var slots Slots
			for step := 0; step < 300; step++ {
				i := int(rng.Uint64n(3))
				p := &regs[i]
				wasDense := p.a.dense
				add := func(x uint64, w int64) {
					p.a.Add(x, w)
					p.r.Add(x, w)
					p.model.add(x, w)
				}
				var what string
				switch op := rng.Uint64n(20); {
				case op < 6:
					x, w := ident(), weight()
					what = fmt.Sprintf("Add(%d,%d)", x, w)
					add(x, w)
				case op < 10:
					x, w := ident(), weight()
					what = fmt.Sprintf("AddSlots(%d,%d)", x, w)
					slots = m.Slots(x, slots[:0])
					p.a.AddSlots(slots, w)
					p.r.AddSlots(slots, w)
					p.model.add(x, w)
				case op < 11:
					// A spike and straight back: the pair returns to where it
					// was, the width does not.
					x, w := ident(), int64(1)<<(15+8*rng.Uint64n(4))
					what = fmt.Sprintf("Add(%d,±%d)", x, w)
					add(x, w)
					add(x, -w)
				case op < 13:
					// Cancel a pair outright: it leaves the table by backward
					// shift, at whichever width the table has.
					x := ident()
					what = fmt.Sprintf("Add(%d,%d) to zero", x, -p.model.freq[x])
					add(x, -p.model.freq[x])
				case op < 16:
					q := &regs[(i+int(rng.Uint64n(3)))%3] // itself one time in three
					what = fmt.Sprintf("Merge(wide=%v <- wide=%v)", p.a.wideSlots, q.a.wideSlots)
					if err := p.a.Merge(q.a); err != nil {
						t.Fatal(err)
					}
					if err := p.r.Merge(q.r); err != nil {
						t.Fatal(err)
					}
					p.model.merge(&q.model)
				case op < 18:
					what = "Compose"
					out := reg{
						Compose(m, []Sketch{regs[0].a, regs[1].a, regs[2].a}).(*CountSketch),
						Compose(twin, []Sketch{regs[0].r, regs[1].r, regs[2].r}).(*CountSketch),
						model(),
					}
					for j := range regs {
						out.model.merge(&regs[j].model)
					}
					recycle(p)
					*p = out
				case op < 19:
					what = "Recycle+New"
					recycle(p)
					*p = fresh()
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
						(*c).maker.Recycle(*c)
						*c = dst
					}
					p.model.wide = needsWide(p.a) // a decoded table is as narrow as its pairs allow
				}
				widenTableFully(p.r)
				at := fmt.Sprintf("%dx%d seed %d step %d %s", g.width, g.depth, seed, step, what)
				sameSketch(t, at, p.a, p.r)
				if p.a.dense {
					if !wasDense {
						promoted++
					}
					continue
				}
				// Slot for slot the two tables hold the same pairs — the layout
				// does not depend on the width — and they are the model's. (An
				// empty recycled sketch keeps its first table only if narrow.)
				if p.a.n != len(p.model.freq) || p.a.n != p.r.n || (p.a.n > 0 && p.a.slots() != p.r.slots()) {
					t.Fatalf("%s: %d pairs in %d slots, twin %d in %d, model %d pairs",
						at, p.a.n, p.a.slots(), p.r.n, p.r.slots(), len(p.model.freq))
				}
				for k := 0; k < p.a.slots() && p.a.n > 0; k++ {
					x, f := p.a.pairAt(k)
					if rx, rf := p.r.pairAt(k); x != rx || f != rf || (f != 0 && f != p.model.freq[x]) {
						t.Fatalf("%s: slot %d holds (%d,%d), twin (%d,%d), model weight %d", at, k, x, f, rx, rf, p.model.freq[x])
					}
				}
				for _, x := range []uint64{ident(), ident(), 7, 1<<32 + 7, math.MaxUint64} {
					if got := p.a.EstimateItem(x); got != float64(p.model.freq[x]) {
						t.Fatalf("%s: EstimateItem(%d) = %v, model %d", at, x, got, p.model.freq[x])
					}
				}
				// The width is the history's: wide from the first pair that
				// needed it until a Reset, narrow otherwise.
				if p.a.wideSlots != p.model.wide || !p.r.wideSlots {
					t.Fatalf("%s: wide slots = %v, history says %v (twin %v)", at, p.a.wideSlots, p.model.wide, p.r.wideSlots)
				}
				slotBytes := 8
				if p.model.wide {
					slotBytes = 16
				}
				if p.a.Bytes() != slotBytes*p.a.slots() || p.r.Bytes() != 16*p.r.slots() {
					t.Fatalf("%s: Bytes = %d for %d slots (wide=%v), twin %d", at, p.a.Bytes(), p.a.slots(), p.model.wide, p.r.Bytes())
				}
				switch {
				case !p.a.wideSlots:
					narrow++
				case needsWide(p.a):
					wide++
				default:
					shrunk++
				}
			}
		}
	}
	for name, n := range map[string]int{"narrow tables": narrow, "wide tables": wide, "wide tables whose pairs came back under the boundary": shrunk, "promotions": promoted} {
		if n < 50 {
			t.Errorf("only %d steps ended on %s", n, name)
		}
	}
}

// TestCountSketchResetNarrows: only Reset takes a widened table back, it does
// so directly and through Recycle, and what it leaves is what a new sketch
// starts with.
func TestCountSketchResetNarrows(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(11))
	for name, reset := range map[string]func(*CountSketch) *CountSketch{
		"Reset": func(c *CountSketch) *CountSketch { c.Reset(); return c },
		"Recycle": func(c *CountSketch) *CountSketch {
			m.Recycle(c)
			return m.New().(*CountSketch)
		},
	} {
		for _, widener := range []struct {
			x uint64
			w int64
		}{{1 << 32, 1}, {5, 1 << 31}, {5, math.MinInt32 - 1}} {
			c := m.New().(*CountSketch)
			c.Add(3, 2)
			if c.wideSlots || c.Bytes() != 8*itemsMinCap {
				t.Fatalf("%s: a small pair left wide=%v, %d bytes", name, c.wideSlots, c.Bytes())
			}
			c.Add(widener.x, widener.w)
			if !c.wideSlots || c.Bytes() != 16*itemsMinCap {
				t.Fatalf("%s: Add(%d,%d) left wide=%v, %d bytes", name, widener.x, widener.w, c.wideSlots, c.Bytes())
			}
			c.Add(widener.x, -widener.w) // cancelling the pair does not narrow the table
			if !c.wideSlots || c.n != 1 || c.EstimateItem(3) != 2 {
				t.Fatalf("%s: after cancelling wide=%v, %d pairs", name, c.wideSlots, c.n)
			}
			got := reset(c)
			if got != c || got.wideSlots || got.n != 0 || got.Bytes() > 8*itemsMinCap {
				t.Fatalf("%s: came back wide=%v with %d pairs in %d bytes", name, got.wideSlots, got.n, got.Bytes())
			}
			got.Add(3, 2)
			if got.wideSlots || got.Bytes() != 8*itemsMinCap || got.Estimate() != 4 {
				t.Fatalf("%s: reused sketch wide=%v, %d bytes, Estimate %v", name, got.wideSlots, got.Bytes(), got.Estimate())
			}
			m.Recycle(got)
		}
	}
}

// TestCountSketchUnmarshalBoundaryPairs: images whose pairs sit on the slot
// width boundaries decode to exactly those pairs, in the narrowest table that
// holds them, and encode back to the same bytes — as does the same image
// decoded over a sketch whose table was wider or narrower before.
func TestCountSketchUnmarshalBoundaryPairs(t *testing.T) {
	m := NewF2Maker(16, 3, hash.New(7))
	images := boundaryPairImages(m)
	c := m.New().(*CountSketch)
	for round := 0; round < 2; round++ {
		for i, img := range images {
			if err := c.UnmarshalBinary(img); err != nil {
				t.Fatalf("image %d: %v", i, err)
			}
			if c.dense || c.wideSlots != needsWide(c) {
				t.Fatalf("image %d: dense=%v, wide slots = %v, the pairs need wide = %v", i, c.dense, c.wideSlots, needsWide(c))
			}
			if again, _ := c.MarshalBinary(); !bytes.Equal(again, img) {
				t.Fatalf("image %d: decode → encode is not the identity", i)
			}
		}
	}
}

// TestCountSketchStructSize: a summary holds tens of thousands of sketches,
// most of them a struct and a small table, so the struct stays in the 80-byte
// size class, and what a dense one adds to it in the 64-byte one.
func TestCountSketchStructSize(t *testing.T) {
	if size := unsafe.Sizeof(CountSketch{}); size > 80 {
		t.Fatalf("CountSketch is %d bytes; the next size class is 96", size)
	}
	if size := unsafe.Sizeof(denseState{}); size > 64 {
		t.Fatalf("denseState is %d bytes; the next size class is 80", size)
	}
}
