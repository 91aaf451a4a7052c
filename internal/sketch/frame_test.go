package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// A closed bucket's dense array is packed into four bits a counter with its
// exceptions listed, and nothing may depend on it but Bytes. The helpers below
// pin the layout, and FuzzPackedArray the extremes a counter and a geometry
// can reach.

// packedArray reports whether c holds a packed array.
func packedArray(c *CountSketch) bool { return c.dense && c.cw == 0 }

// frameImage is the block a packed array of the counters ctr with row sums
// rows takes — written here from the layout packArray's comment gives, not by
// packArray: the row sums, a nibble a counter, zigzagged, 15 for one outside
// −7…7, then the list's length and, for each such counter, its index gap and
// its zigzag value.
func frameImage(rows []float64, ctr []int64) []byte {
	var img []byte
	for _, r := range rows {
		img = binary.NativeEndian.AppendUint64(img, math.Float64bits(r))
	}
	nib := make([]byte, (len(ctr)+1)/2)
	var list []byte
	last := -1
	for j, v := range ctr {
		z := 2 * uint64(v)
		if v < 0 {
			z = 2*uint64(-(v+1)) + 1
		}
		if z >= 15 {
			list = binary.AppendUvarint(binary.AppendUvarint(list, uint64(j-last-1)), z)
			z, last = 15, j
		}
		nib[j/2] |= byte(z) << (4 * (j % 2))
	}
	img = binary.AppendUvarint(append(img, nib...), uint64(len(list)))
	return append(img, list...)
}

// checkFrame fails unless c is a packed array whose block is the frame of the
// counters it is said to hold, under its row sums, and the counters read back
// one at a time: the last and every seventh, escaped or not.
func checkFrame(t testing.TB, step string, c *CountSketch, want []int64) {
	t.Helper()
	if !packedArray(c) {
		t.Fatalf("%s: not a packed array (dense=%v, %d bytes a counter)", step, c.dense, c.cw)
	}
	if img := frameImage(c.rowF2(), want); !bytes.Equal(block(c), img) {
		t.Fatalf("%s: a packed array of %d bytes, its counters' frame takes %d", step, c.Bytes(), len(img))
	}
	for j, v := range want {
		if j%7 != 0 && j != len(want)-1 {
			continue
		}
		if got := c.at(j); got != v {
			t.Fatalf("%s: counter %d reads %d, want %d", step, j, got, v)
		}
	}
}

// arrayInput is a packed-array fuzz input: the geometry's byte, then the
// counters, eight bytes each, little-endian.
func arrayInput(geometry byte, vs ...int64) []byte {
	data := []byte{geometry}
	for _, v := range vs {
		data = binary.LittleEndian.AppendUint64(data, uint64(v))
	}
	return data
}

// FuzzPackedArray packs a dense array of the fuzzer's counters — any int64,
// so the plain array before it is int8, int16 or int64, on a geometry of one,
// two or eight counters a row, or corrd's — and fails unless it is packed
// exactly when its frame is smaller, then is that frame, answers and marshals
// as the plain array did, adds into a composition at every width as the plain
// array does, and unpacks into the narrowest plain array that holds it,
// packing again to the same bytes; the maker's books are a walk throughout.
// The first byte picks the geometry; the counters past the input's end are
// zero.
func FuzzPackedArray(f *testing.F) {
	geometries := []struct{ width, depth int }{{1, 1}, {2, 3}, {8, 4}, {356, 4}, {1, 3}, {8, 1}}
	makers := make([]*F2Maker, len(geometries))
	for i, g := range geometries {
		makers[i] = NewF2Maker(g.width, g.depth, hash.New(uint64(9+i)))
	}
	for g, m := range makers {
		escaped := make([]int64, m.width*m.depth)
		for j := range escaped {
			escaped[j] = []int64{8, -8, math.MaxInt64, math.MinInt64, -math.MaxInt64}[j%5]
		}
		f.Add(arrayInput(byte(g)))             // all zeros
		f.Add(arrayInput(byte(g), escaped...)) // every counter an exception
		f.Add(arrayInput(byte(g), math.MinInt64, 1, -1, 7, -7, 0, 3, math.MaxInt64))
		f.Add(arrayInput(byte(g), 200, -129, math.MaxInt16, math.MinInt16, 3)) // an int16 array
	}
	f.Add(append(arrayInput(3, 9), make([]byte, 8*(356*4-2))...))                     // an exception at index 0 alone
	f.Add(append(arrayInput(3, make([]int64, 356*4-1)...), arrayInput(0, -9)[1:]...)) // and at w·d − 1
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := makers[int(data[0])%len(makers)]
		n := m.width * m.depth
		vs := make([]int64, n)
		for j := 0; j < n && len(data[1:]) >= 8*(j+1); j++ {
			vs[j] = int64(binary.LittleEndian.Uint64(data[1+8*j:]))
		}
		c := m.New().(*CountSketch)
		c.allocDense()
		for j, v := range vs {
			c.put(j, v)
		}
		c.sumSquares()
		img, _ := c.MarshalBinary()
		est, plain := c.Estimate(), c.Bytes()
		frame := frameImage(c.rowF2(), vs)
		c.Compact()
		if len(frame) >= plain {
			if packedArray(c) || c.Bytes() != plain {
				t.Fatalf("a %d-byte array whose frame takes %d left packed=%v in %d bytes", plain, len(frame), packedArray(c), c.Bytes())
			}
			m.Recycle(c)
			return
		}
		checkFrame(t, "packed", c, vs)
		checkBooks(t, "packed", m, []*CountSketch{c})
		if again, _ := c.MarshalBinary(); !bytes.Equal(again, img) || c.Estimate() != est {
			t.Fatal("packing changed the image or the estimate")
		}
		for _, x := range []uint64{0, 1, math.MaxUint64} {
			want := make([]float64, m.depth)
			for i, v := range m.Slots(x, nil)[:m.depth] {
				want[i] = float64((int64(v&1)*2 - 1) * vs[i*m.width+int(v>>1)])
			}
			if got := c.EstimateItem(x); got != median(want) {
				t.Fatalf("EstimateItem(%d) = %v, the counters say %v", x, got, median(want))
			}
		}
		// Added into a composition at each width, from any index on, it adds
		// what the counters hold, wrapping at int64 as a plain array does.
		for _, cw := range []uint8{1, 2, 8} {
			sum := m.New().(*CountSketch)
			sum.allocDense()
			for sum.cw < cw {
				sum.widen()
			}
			for j := range n {
				sum.put(j, int64(j%3)-1)
			}
			sum.addCounters(c)
			for j, v := range vs {
				if got := sum.at(j); got != int64(j%3)-1+v {
					t.Fatalf("added into int%d counters, counter %d reads %d, want %d", 8*cw, j, got, int64(j%3)-1+v)
				}
			}
			m.Recycle(sum)
		}
		packed := slices.Clone(block(c))
		c.unpack() // the first step of a write
		if c.cw != widthFor(vs) || !slices.Equal(counters(c), vs) || c.Estimate() != est {
			t.Fatalf("unpacked into %d bytes a counter, the counters need %d", c.cw, widthFor(vs))
		}
		if again, _ := c.MarshalBinary(); !bytes.Equal(again, img) {
			t.Fatal("unpacking changed the image")
		}
		checkBooks(t, "unpacked", m, []*CountSketch{c})
		if c.Compact(); !bytes.Equal(block(c), packed) {
			t.Fatal("packing the unpacked array again gave other bytes")
		}
		m.Recycle(c)
		checkBooks(t, "recycled", m, nil)
	})
}
