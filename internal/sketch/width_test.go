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

// wideTwin returns a maker with m's geometry, row hashes, promotion point and
// free lists of its own, for sketches the test widens after every step.
func wideTwin(m *F2Maker) *F2Maker {
	t := denseTwin(m)
	t.itemsMax = m.itemsMax
	t.tables = make([][][]uint64, len(m.tables))
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
					if p.a.dense || p.a.cw != 0 || p.a.rung != slot4 || p.a.Bytes() != 0 {
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

// An items table likewise stores a slot at four bytes, eight or sixteen and
// nothing may depend on which. The tests below drive a sketch beside a twin
// whose table the test lifts one or two rungs after every step — sixteen bytes
// is the table every sketch had before there were widths — over identifiers on
// both sides of 2^24 and of 2^32 and weights that cross ±2^7 and ±2^31 in both
// directions, and beside a model of what the table should hold and of the rung
// its history has forced.

// rungFor returns the lowest rung whose slots hold the pair.
func rungFor(x uint64, f int64) uint8 {
	switch {
	case x>>24 == 0 && f == int64(int8(f)):
		return slot4
	case x>>32 == 0 && f == int64(int32(f)):
		return slot8
	}
	return slot16
}

// needsRung returns the lowest rung that holds every pair of c.
func needsRung(c *CountSketch) uint8 {
	rung := uint8(slot4)
	for k := range c.slots() {
		if x, f := c.pairAt(k); f != 0 {
			rung = max(rung, rungFor(x, f))
		}
	}
	return rung
}

// liftTable takes an items-form sketch's table up to the given rung.
func liftTable(c *CountSketch, rung uint8) {
	for !c.dense && c.rung < rung {
		c.widenTable()
	}
}

// tableModel is the pairs an items-form sketch should hold, and the highest
// rung a pair stored since its last Reset has needed.
type tableModel struct {
	freq map[uint64]int64
	rung uint8
}

func (m *tableModel) add(x uint64, w int64) {
	f := m.freq[x] + w
	if f == 0 {
		delete(m.freq, x)
		return
	}
	m.freq[x] = f
	m.rung = max(m.rung, rungFor(x, f))
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
	xs := []uint64{0, 1<<24 - 1, 1 << 24, 1<<32 - 1, 1 << 32, math.MaxUint64}
	fs := []int64{
		1, math.MaxInt8, -math.MaxInt8, math.MaxInt8 + 1, math.MinInt8, math.MinInt8 - 1,
		math.MaxInt32, -math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1, math.MaxInt64, math.MinInt64,
	}
	var images [][]byte
	for _, x := range xs {
		for _, f := range fs {
			images = append(images, itemsImage(m, xf{x, f}))
		}
	}
	for _, f := range fs {
		images = append(images, itemsImage(m, xf{xs[0], f}, xf{xs[1], -f | 1}, xf{xs[2], f}, xf{xs[3], -f | 1}, xf{xs[4], f}, xf{xs[5], 1}))
	}
	return images
}

// formOf names what a sketch is stored as: its slot bytes, or dense.
func formOf(c *CountSketch) string {
	if c.dense {
		return "dense"
	}
	return fmt.Sprint(4 << c.rung)
}

// TestCountSketchTableWidthsAgree runs seeded random operation sequences over
// a few registers. Each register of a run draws its identifiers from one of
// three bands — under 2^24, across it, across 2^32 — and its weights from one
// of three — units, up to and across 2^7, up to and across 2^31 — so over the
// runs every band meets every other: tables that stay at four bytes, tables
// only identifiers widen, tables only weights do, and merges between all of
// them. The twin is held at eight bytes or more in half the runs, at sixteen
// in the rest.
func TestCountSketchTableWidthsAgree(t *testing.T) {
	type reg struct {
		a, r         *CountSketch
		model        tableModel
		xTier, wTier uint64
	}
	ended := map[string]int{}  // steps that ended on a table at each slot width
	merged := map[string]int{} // merges by the forms of receiver and operand
	var shrunk, promoted int   // steps that ended above the rung the pairs need; promotions
	for _, g := range []struct{ width, depth int }{{16, 3}, {64, 4}, {356, 4}} {
		for seed := uint64(1); seed <= 24; seed++ {
			m := NewF2Maker(g.width, g.depth, hash.New(3000+seed))
			twin := wideTwin(m)
			floor := uint8(slot8 + seed%2)
			rng := hash.New(seed)
			weight := func(tier uint64) int64 {
				var w int64
				switch k := rng.Uint64n(16); {
				case k == 0 && tier == 2 && seed%3 == 2:
					w = 1 << 40
				case k <= 2 && tier == 2:
					w = 1<<31 - 2 + int64(rng.Uint64n(5))
				case k <= 4 && tier >= 1:
					w = int64(rng.Uint64n(1 << 13))
				case k <= 7 && tier >= 1:
					w = 1<<7 - 2 + int64(rng.Uint64n(5))
				default:
					w = 1 + int64(rng.Uint64n(3))
				}
				if rng.Uint64n(2) == 0 {
					w = -w
				}
				return w
			}
			// A domain on either side of the promotion point; the upper two
			// bands straddle their boundary.
			domain := uint64(m.itemsMax)/2 + 1 + rng.Uint64n(uint64(m.itemsMax)+4)
			ident := func(tier uint64) uint64 {
				x := rng.Uint64n(domain)
				switch tier {
				case 1:
					x += 1<<24 - domain/2
				case 2:
					x += 1<<32 - domain/2
				}
				return x
			}
			model := func() tableModel { return tableModel{freq: map[uint64]int64{}} }
			tiers := [4]uint64{0, 1, 1, 2} // the top band spreads through merges: deal it less often
			fresh := func(i uint64) reg {
				return reg{m.New().(*CountSketch), twin.New().(*CountSketch), model(), tiers[(seed+i)%4], tiers[(seed/4+i)%4]}
			}
			regs := []reg{fresh(0), fresh(1), fresh(2)}
			recycle := func(p *reg) {
				m.Recycle(p.a)
				twin.Recycle(p.r)
			}
			var slots Slots
			for step := 0; step < 400; step++ {
				i := rng.Uint64n(3)
				p := &regs[i]
				wasDense := p.a.dense
				add := func(x uint64, w int64) {
					p.a.Add(x, w)
					p.r.Add(x, w)
					p.model.add(x, w)
				}
				var what string
				switch op := rng.Uint64n(20); {
				case op < 5:
					x, w := ident(p.xTier), weight(p.wTier)
					what = fmt.Sprintf("Add(%d,%d)", x, w)
					add(x, w)
				case op < 8:
					x, w := ident(p.xTier), weight(p.wTier)
					what = fmt.Sprintf("AddSlots(%d,%d)", x, w)
					slots = m.Slots(x, slots[:0])
					p.a.AddSlots(slots, w)
					p.r.AddSlots(slots, w)
					p.model.add(x, w)
				case op < 9:
					// A spike and straight back: the pair returns to where it
					// was, the width does not.
					x, w := ident(p.xTier), int64(1)<<(7+8*min(rng.Uint64n(4), p.wTier+1))
					if p.wTier == 0 {
						w = 1 << 5 // the units band stays inside a byte
					}
					what = fmt.Sprintf("Add(%d,±%d)", x, w)
					add(x, w)
					add(x, -w)
				case op < 11:
					// Cancel a pair outright: it leaves the table by backward
					// shift, at whichever width the table has.
					x := ident(p.xTier)
					what = fmt.Sprintf("Add(%d,%d) to zero", x, -p.model.freq[x])
					add(x, -p.model.freq[x])
				case op < 16:
					q := &regs[(i+rng.Uint64n(3))%3] // itself one time in three
					forms := formOf(p.a) + " <- " + formOf(q.a)
					if q == p {
						forms += ", itself"
					}
					merged[forms]++
					what = "Merge(" + forms + ")"
					if err := p.a.Merge(q.a); err != nil {
						t.Fatal(err)
					}
					if err := p.r.Merge(q.r); err != nil {
						t.Fatal(err)
					}
					p.model.merge(&q.model)
				case op < 17:
					what = "Compose"
					out := reg{
						Compose(m, []Sketch{regs[0].a, regs[1].a, regs[2].a}).(*CountSketch),
						Compose(twin, []Sketch{regs[0].r, regs[1].r, regs[2].r}).(*CountSketch),
						model(), p.xTier, p.wTier,
					}
					for j := range regs {
						out.model.merge(&regs[j].model)
					}
					recycle(p)
					*p = out
				case op < 19:
					what = "Recycle+New"
					recycle(p)
					*p = fresh(i)
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
					p.model.rung = needsRung(p.a) // a decoded table is as narrow as its pairs allow
				}
				liftTable(p.r, floor)
				at := fmt.Sprintf("%dx%d seed %d step %d %s", g.width, g.depth, seed, step, what)
				sameSketch(t, at, p.a, p.r)
				if p.a.dense {
					if !wasDense {
						promoted++
					}
					continue
				}
				// Slot for slot the two tables hold the same pairs — the layout
				// does not depend on the width — and they are the model's. (A
				// reset sketch holds no table, whatever rung the twin is lifted
				// to.)
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
				for _, x := range []uint64{ident(p.xTier), ident(0), ident(2), 7, 1<<24 + 7, 1<<32 + 7, math.MaxUint64} {
					if got := p.a.EstimateItem(x); got != float64(p.model.freq[x]) {
						t.Fatalf("%s: EstimateItem(%d) = %v, model %d", at, x, got, p.model.freq[x])
					}
				}
				// The width is the history's: at the highest rung a stored pair
				// has needed since the last Reset.
				if p.a.rung != p.model.rung || p.r.rung != max(p.model.rung, floor) {
					t.Fatalf("%s: %d-byte slots, history says %d (twin %d, held at %d or more)",
						at, 4<<p.a.rung, 4<<p.model.rung, 4<<p.r.rung, 4<<floor)
				}
				if p.a.Bytes() != p.a.slots()*4<<p.a.rung || p.r.Bytes() != p.r.slots()*4<<p.r.rung {
					t.Fatalf("%s: Bytes = %d for %d slots of %d bytes, twin %d", at, p.a.Bytes(), p.a.slots(), 4<<p.a.rung, p.r.Bytes())
				}
				ended[formOf(p.a)]++
				if p.a.rung > needsRung(p.a) {
					shrunk++
				}
			}
		}
	}
	want := map[string]int{"promotions": promoted, "tables whose pairs came back under a boundary": shrunk}
	forms := []string{"4", "8", "16", "dense"}
	for _, a := range forms[:3] {
		want["tables of "+a+"-byte slots"] = ended[a]
		want["merges "+a+" <- "+a+", itself"] = merged[a+" <- "+a+", itself"]
	}
	for _, a := range forms {
		for _, b := range forms {
			want["merges "+a+" <- "+b] = merged[a+" <- "+b]
		}
	}
	for name, n := range want {
		if n < 50 {
			t.Errorf("only %d steps saw %s", n, name)
		}
	}
}

// TestCountSketchResetNarrows: only Reset takes a widened table back, it does
// so directly and through Recycle, and what it leaves is what a new sketch
// starts with: no table, and the bottom rung for the first pair.
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
			x    uint64
			w    int64
			rung uint8
		}{
			{1 << 24, 1, slot8}, {5, 1 << 7, slot8}, {5, math.MinInt8 - 1, slot8},
			{1 << 32, 1, slot16}, {5, 1 << 31, slot16}, {5, math.MinInt32 - 1, slot16},
		} {
			c := m.New().(*CountSketch)
			c.Add(3, 2)
			if c.rung != slot4 || c.Bytes() != 4*itemsMinCap {
				t.Fatalf("%s: a small pair left %d-byte slots, %d bytes", name, 4<<c.rung, c.Bytes())
			}
			c.Add(widener.x, widener.w)
			if c.rung != widener.rung || c.Bytes() != itemsMinCap*4<<widener.rung {
				t.Fatalf("%s: Add(%d,%d) left %d-byte slots, %d bytes", name, widener.x, widener.w, 4<<c.rung, c.Bytes())
			}
			c.Add(widener.x, -widener.w) // cancelling the pair does not narrow the table
			if c.rung != widener.rung || c.n != 1 || c.EstimateItem(3) != 2 {
				t.Fatalf("%s: after cancelling %d-byte slots, %d pairs", name, 4<<c.rung, c.n)
			}
			got := reset(c)
			if got != c || got.rung != slot4 || got.n != 0 || got.Bytes() != 0 {
				t.Fatalf("%s: came back at %d-byte slots with %d pairs in %d bytes", name, 4<<got.rung, got.n, got.Bytes())
			}
			got.Add(3, 2)
			if got.rung != slot4 || got.Bytes() != 4*itemsMinCap || got.Estimate() != 4 {
				t.Fatalf("%s: reused sketch at %d-byte slots, %d bytes, Estimate %v", name, 4<<got.rung, got.Bytes(), got.Estimate())
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
	reached := map[uint8]int{}
	for round := 0; round < 2; round++ {
		for i, img := range images {
			if err := c.UnmarshalBinary(img); err != nil {
				t.Fatalf("image %d: %v", i, err)
			}
			if c.dense || c.rung != needsRung(c) {
				t.Fatalf("image %d: dense=%v, %d-byte slots, the pairs need %d", i, c.dense, 4<<c.rung, 4<<needsRung(c))
			}
			reached[c.rung]++
			if again, _ := c.MarshalBinary(); !bytes.Equal(again, img) {
				t.Fatalf("image %d: decode → encode is not the identity", i)
			}
		}
	}
	if reached[slot4] == 0 || reached[slot8] == 0 || reached[slot16] == 0 {
		t.Fatalf("images decoded to %v tables by rung; want some at each", reached)
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
