package sketch

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// A dense CountSketch stores its counters at two, four or eight bytes and
// nothing may depend on which. These tests drive a sketch beside a twin held
// at int64 — the array every sketch had before there were widths — through
// weights that cross the int16 and int32 boundaries in both directions.

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
	cw := uint8(2)
	for _, v := range vs {
		switch {
		case v < math.MinInt32 || v > math.MaxInt32:
			return 8
		case v < math.MinInt16 || v > math.MaxInt16:
			cw = 4
		}
	}
	return cw
}

// denseImage is the image of a dense sketch of m holding vs.
func denseImage(m *F2Maker, vs []int64) []byte {
	img := []byte{marshalVersion, kindCountSketch}
	img = appendU64(appendU64(img, uint64(m.depth)), uint64(m.width))
	img = append(img, formDense)
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
// has reached, its twin at int64 — agree on everything a caller can see.
func sameSketch(t *testing.T, step string, narrow, wide *CountSketch) {
	t.Helper()
	if narrow.dense != wide.dense || narrow.Size() != wide.Size() {
		t.Fatalf("%s: dense=%v Size %d, int64 twin dense=%v Size %d",
			step, narrow.dense, narrow.Size(), wide.dense, wide.Size())
	}
	got, want := counters(narrow), counters(wide)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: counters differ from the int64 twin's (stored at %d bytes)", step, narrow.cw)
	}
	if narrow.dense && narrow.cw < widthFor(got) {
		t.Fatalf("%s: stored at %d bytes, the counters need %d", step, narrow.cw, widthFor(got))
	}
	if a, r := narrow.Estimate(), wide.Estimate(); a != r {
		t.Fatalf("%s: Estimate %v, int64 twin %v", step, a, r)
	}
	for x := uint64(0); x < 16; x++ {
		if a, r := narrow.EstimateItem(x), wide.EstimateItem(x); a != r {
			t.Fatalf("%s: EstimateItem(%d) = %v, int64 twin %v", step, x, a, r)
		}
	}
	for _, thresh := range []float64{1, 1 << 20, 1 << 40, 1 << 62, 1e30} {
		if a, r := narrow.ThresholdBudget(thresh), wide.ThresholdBudget(thresh); a != r {
			t.Fatalf("%s: ThresholdBudget(%g) = %d, int64 twin %d", step, thresh, a, r)
		}
	}
	img, err := narrow.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if wimg, _ := wide.MarshalBinary(); !bytes.Equal(img, wimg) {
		t.Fatalf("%s: image differs from the int64 twin's", step)
	}
}

// TestCountSketchWidthsAgree runs seeded random operation sequences over a
// few registers. Weights come in the magnitudes that matter — units, either
// side of 2^15, either side of 2^31, 2^40 — signed, over a domain small
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
			// A third of the runs stop at weights around 2^15 and a third at
			// 2^31, so sketches also spend time at the narrower widths.
			weight := func() int64 {
				var w int64
				switch k := rng.Uint64n(32); {
				case k == 0 && seed%3 == 2:
					w = 1 << 40
				case k <= 1 && seed%3 >= 1:
					w = 1<<31 - 2 + int64(rng.Uint64n(5))
				case k <= 3:
					w = 1<<15 - 2 + int64(rng.Uint64n(5))
				case k <= 6:
					w = int64(rng.Uint64n(1 << 13))
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
					x, w := rng.Uint64n(domain), int64(1)<<(15+8*rng.Uint64n(4))
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
					if p.a.dense || p.a.cw != 0 || p.a.Bytes() != 16*len(p.a.tab) {
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
	for _, cw := range []uint8{2, 4, 8} {
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
