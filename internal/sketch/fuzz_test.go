package sketch

import (
	"bytes"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// FuzzCountSketchUnmarshal hardens the CountSketch payload decoder on its
// own — elsewhere it is reached only through core's framing, which a fuzzer
// must first get past. Hostile bytes must come back as an error, never a
// panic and never a table or array larger than the geometry allows, nor a
// table wider than its widest pair or an array wider than its largest counter
// needs; an accepted image must leave a working sketch that re-marshals
// canonically (a padded varint decodes, so the bytes may change once; after
// that encode ∘ decode is the identity).
func FuzzCountSketchUnmarshal(f *testing.F) {
	m := NewF2Maker(16, 3, hash.New(7)) // itemsMax 12
	seed := func(items int) *CountSketch {
		c := m.New().(*CountSketch)
		for x := 0; x < items; x++ {
			c.Add(uint64(x)*0x9E3779B9, int64(x%5)-2)
		}
		return c
	}
	var images [][]byte
	for _, items := range []int{0, 1, m.itemsMax, m.itemsMax + 1, 200} {
		img, err := seed(items).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		images = append(images, img)
	}
	// The version-2 rendition of the dense images: no form byte.
	for _, img := range images[3:] {
		images = append(images, append([]byte{2}, append(append([]byte(nil), img[1:4]...), img[5:]...)...))
	}
	// Counters on each side of the boundaries between the stored widths.
	images = append(images, boundaryImages(m)...)
	// Pairs on each side of the boundaries between the three slot widths.
	images = append(images, boundaryPairImages(m)...)
	for _, img := range images {
		f.Add(img)
		f.Add(img[:len(img)/2])
		corrupt := append([]byte(nil), img...)
		corrupt[len(corrupt)*2/3] ^= 0x81
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte{marshalVersion, kindCountSketch, 3, 16, formItems, 0xff, 0xff, 0xff, 0xff, 0x0f}) // forged count

	f.Fuzz(func(t *testing.T, data []byte) {
		c := m.New().(*CountSketch)
		if err := c.UnmarshalBinary(data); err != nil {
			return
		}
		held := 0
		if c.denseState != nil {
			held = len(c.c8)
			if c.wide != nil {
				held += len(c.wide.c16) + len(c.wide.c64)
			}
		}
		if c.slots() > tableFor(m.itemsMax) || int(c.n) > m.itemsMax || (c.dense && held != m.width*m.depth) {
			t.Fatalf("decoded past the geometry: table %d slots, %d pairs, %d counters", c.slots(), c.n, held)
		}
		if vs := counters(c); c.dense && c.cw != widthFor(vs) {
			t.Fatalf("decoded at %d bytes a counter, the counters need %d", c.cw, widthFor(vs))
		}
		if !c.dense && c.rung != needsRung(c) {
			t.Fatalf("decoded into %d-byte slots, the pairs need %d", 4<<c.rung, 4<<needsRung(c))
		}
		img, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		again := m.New().(*CountSketch)
		if err := again.UnmarshalBinary(img); err != nil {
			t.Fatalf("re-marshaled image rejected: %v", err)
		}
		if img2, _ := again.MarshalBinary(); !bytes.Equal(img2, img) || again.Estimate() != c.Estimate() {
			t.Fatal("decode → encode is not idempotent")
		}
		// The restored sketch keeps working, through promotion if need be.
		for x := uint64(0); x < 20; x++ {
			c.Add(x, 1)
			again.Add(x, 1)
		}
		if c.Estimate() != again.Estimate() || c.EstimateItem(3) != again.EstimateItem(3) {
			t.Fatal("copies diverge after further adds")
		}
	})
}
