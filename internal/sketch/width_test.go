package sketch

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"unsafe"

	"github.com/streamagg/correlated/internal/hash"
)

// A dense CountSketch stores its counters at one, two or eight bytes, and an
// items table its slots at four, eight or sixteen; nothing may depend on which.
// TestCountSketchFormsAgree drives every width against the one reference; the
// tests here pin the boundaries themselves.

// widthFor returns the bytes the largest of vs needs.
func widthFor(vs []int64) uint8 {
	cw := uint8(1)
	for _, v := range vs {
		switch {
		case v < math.MinInt16 || v > math.MaxInt16:
			return 8
		case v < math.MinInt8 || v > math.MaxInt8:
			cw = 2
		}
	}
	return cw
}

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

// denseSketch returns an empty sketch of m already in the dense form.
func denseSketch(m *F2Maker) *CountSketch {
	c := m.New().(*CountSketch)
	c.promote()
	return c
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

// TestCountSketchRowSumsSurviveLargeWeights: the incremental row sums must
// be the sums of squares of the counters — what a restart, which re-sums,
// will say — also when counter × weight leaves 62 bits.
func TestCountSketchRowSumsSurviveLargeWeights(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(61))
	for _, w := range []int64{1 << 31, 3e9, -3e9, 1 << 33, 1 << 40, -(1 << 45)} {
		c := denseSketch(m)
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
		m.Recycle(c)
	}
	// The case from the field: two adds of 3e9 to one item.
	c := denseSketch(m)
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
// size class, and what a dense one adds to it in the 64-byte one. The headers
// of the arrays past int8 sit behind a second pointer, in a 48-byte block only
// a widened sketch holds: the three headers in denseState would make it 96
// bytes, 32 more on each of the ≈ 11 150 one-byte arrays of a stream-saturate
// tenant (≈ 0.36 MB) to save the second pointer on the few that widen.
func TestCountSketchStructSize(t *testing.T) {
	if size := unsafe.Sizeof(CountSketch{}); size > 80 {
		t.Fatalf("CountSketch is %d bytes; the next size class is 96", size)
	}
	if size := unsafe.Sizeof(denseState{}); size > 64 {
		t.Fatalf("denseState is %d bytes; the next size class is 80", size)
	}
	if size := unsafe.Sizeof(wideCounters{}); size > 48 {
		t.Fatalf("wideCounters is %d bytes; the next size class is 64", size)
	}
}
