package sketch

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"
	"unsafe"

	"github.com/streamagg/correlated/internal/bitcode"
	"github.com/streamagg/correlated/internal/hash"
)

// A closed bucket's items table is packed into a run and nothing may depend on
// it but Bytes. The tests below pin the run's layout and the edges of a pack:
// the promotion point, the fewest pairs, a Reset, and the extremes a pair can
// hold.

// primeTables leaves m's free runs holding the tables of every size that
// sketches at every rung have filled and handed back, so that a step which
// takes one finds out whether it came back zeroed.
func primeTables(t *testing.T, m *F2Maker) {
	t.Helper()
	for rung, wide := range []xf{slot4: {1, 1}, slot8: {1 << 24, 1 << 7}, slot16: {1 << 32, 1 << 31}} {
		for rep := 0; rep < 3; rep++ {
			c := m.New().(*CountSketch)
			for x := uint64(0); int(x) < m.itemsMax; x++ {
				c.Add(wide.x+x*uint64(rep+1), wide.f+int64(x%3))
			}
			if c.dense || int(c.rung) != rung {
				t.Fatalf("priming: dense=%v at %d-byte slots, want %d", c.dense, 4<<c.rung, 4<<rung)
			}
			m.Recycle(c)
			// A probe of a table that came back dirty may never end: say so
			// before the next sketch takes one.
			checkBooks(t, "priming", m, nil)
		}
	}
}

// tableFor returns the slots of the hashed table that holds n pairs without
// growing: a step of the ladder 8, 12, 16, 24, ….
func tableFor(n int) int { return stepSlots(stepFor(n)) }

// packed reports whether c holds a packed run.
func packed(c *CountSketch) bool { return !c.dense && c.step == 0 && c.n > 0 }

// pairsOf returns what a walk of c reads, in its order.
func pairsOf(c *CountSketch) []xf {
	var out []xf
	var w pairs
	c.walk(&w)
	for x, f, ok := w.next(); ok; x, f, ok = w.next() {
		out = append(out, xf{x, f})
	}
	return out
}

// ascendingPairs returns the pairs of a model, ordered by x.
func ascendingPairs(freq map[uint64]int64) []xf {
	out := make([]xf, 0, len(freq))
	for x, f := range freq {
		out = append(out, xf{x, f})
	}
	slices.SortFunc(out, func(a, b xf) int { return cmp.Compare(a.x, b.x) })
	return out
}

// runImage is the block a packed run of pairs, given in ascending x, takes at
// a rung with Σf²'s high word hi ahead of it at the wide ones — written here
// from the layout pack's comment gives, not by pack: gaps less one from
// −1, weights as 2(|f| − 1) plus their sign, each column in the code
// bitcode's pricing picks.
func runImage(rung uint8, hi uint64, pairs []xf) []byte {
	gaps, ws := make([]uint64, len(pairs)), make([]uint64, len(pairs))
	prev := uint64(math.MaxUint64)
	for i, p := range pairs {
		mag := uint64(p.f)
		if p.f < 0 {
			mag = -mag
		}
		gaps[i], ws[i], prev = p.x-prev-1, 2*(mag-1), p.x
		if p.f < 0 {
			ws[i]++
		}
	}
	pg, pw := bitcode.Param(gaps), bitcode.Param(ws)
	w := bitcode.NewWriter(nil)
	for i := range pairs {
		w.Code(gaps[i], pg)
		w.Code(ws[i], pw)
	}
	bits := w.Flush()
	var img []byte
	if rung != slot4 {
		img = binary.NativeEndian.AppendUint64(img, hi)
	}
	img = binary.AppendUvarint(append(img, pg, pw), uint64(len(bits)))
	return append(img, bits...)
}

// block returns the bytes of c's arena block, as long as Bytes says.
func block(c *CountSketch) []byte { return unsafe.Slice((*byte)(c.p), c.Bytes()) }

// f2Of returns Σf² over pairs, in 128 bits.
func f2Of(pairs []xf) (hi, lo uint64) {
	sum := new(big.Int)
	for _, p := range pairs {
		f := big.NewInt(p.f)
		sum.Add(sum, f.Mul(f, f))
	}
	sum.Mod(sum, new(big.Int).Lsh(big.NewInt(1), 128))
	lo = new(big.Int).And(sum, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
	return new(big.Int).Rsh(sum, 64).Uint64(), lo
}

// checkRun fails unless c is packed and its block is the run of the pairs it
// is said to hold — which its walk must read back, ascending, as Bytes must
// measure it — with Σf²'s words over them.
func checkRun(t testing.TB, step string, c *CountSketch, want []xf) {
	t.Helper()
	if !packed(c) {
		t.Fatalf("%s: not packed (dense=%v, step %d, %d pairs)", step, c.dense, c.step, c.n)
	}
	if got := pairsOf(c); !slices.Equal(got, want) {
		t.Fatalf("%s: the run's walk reads %d pairs %v, want %d %v", step, len(got), got, len(want), want)
	}
	hi, lo := f2Of(want)
	if c.f2hi() != hi || c.f2lo != lo {
		t.Fatalf("%s: Σf² is %#x:%#x, the pairs square to %#x:%#x", step, c.f2hi(), c.f2lo, hi, lo)
	}
	if img := runImage(c.rung, hi, want); !bytes.Equal(block(c), img) {
		t.Fatalf("%s: a run of %d pairs at %d-byte slots holds % x (%d bytes), the layout gives % x", step, c.n, 4<<c.rung, block(c), c.Bytes(), img)
	}
}

// TestCountSketchCutTableAtThePromotionPoint: a packed run holding itemsMax
// pairs takes an update to one of them and stays in the items form, and takes
// one pair more by promoting, to the counters of a sketch that was never
// packed.
func TestCountSketchCutTableAtThePromotionPoint(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(77))
	cut, plain := m.New().(*CountSketch), m.New().(*CountSketch)
	both := func(step string, x uint64, w int64) {
		cut.Add(x, w)
		plain.Add(x, w)
		sameSketch(t, step, plain, cut)
	}
	var want []xf
	for x := 0; x < m.itemsMax; x++ {
		both("fill", uint64(1000+x), int64(1+x%3))
		want = append(want, xf{uint64(1000 + x), int64(1 + x%3)})
	}
	cut.Compact()
	checkRun(t, "packed", cut, want)
	if cut.Bytes() >= 4*m.itemsMax {
		t.Fatalf("%d pairs packed into %d bytes, no fewer than four a pair", m.itemsMax, cut.Bytes())
	}
	sameSketch(t, "packed", plain, cut)
	both("revisit", 1000, 7)
	if cut.dense || int(cut.n) != m.itemsMax || cut.slots() != tableFor(m.itemsMax+1) {
		t.Fatalf("an update to a held pair left dense=%v, %d pairs in %d slots", cut.dense, cut.n, cut.slots())
	}
	cut.Compact()
	both("one more", 5000, 1)
	if !cut.dense {
		t.Fatal("one pair past itemsMax did not promote a packed run")
	}
}

// TestCountSketchCutFewPairs: a table packed from 1, 7, 8 or 9 pairs at every
// rung is the run its pairs give, answers and marshals as the hashed table
// did, looks up pairs it holds and ones it does not, and takes a merge into
// itself, a write and a Reset.
func TestCountSketchCutFewPairs(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(11))
	primeTables(t, m)
	for rung, wide := range []xf{slot4: {1, 2}, slot8: {1 << 24, 2}, slot16: {1, 1 << 31}} {
		for _, pairs := range []int{1, 7, 8, 9} {
			at := fmt.Sprintf("%d pairs of %d bytes", pairs, 4<<rung)
			cut, plain := m.New().(*CountSketch), m.New().(*CountSketch)
			model := map[uint64]int64{}
			both := func(x uint64, w int64) {
				cut.Add(x, w)
				plain.Add(x, w)
				if model[x] += w; model[x] == 0 {
					delete(model, x)
				}
			}
			requirePacked := func(step string, pairs int) {
				t.Helper()
				cut.Compact()
				if int(cut.n) != pairs || int(cut.rung) != rung {
					t.Fatalf("%s, %s: %d pairs at %d-byte slots", at, step, cut.n, 4<<cut.rung)
				}
				checkRun(t, at+", "+step, cut, ascendingPairs(model))
				sameSketch(t, at+", "+step, plain, cut)
				for x, f := range model {
					if cut.EstimateItem(x) != float64(f) || plain.EstimateItem(x) != float64(f) {
						t.Fatalf("%s, %s: EstimateItem(%d) = %v, want %d", at, step, x, cut.EstimateItem(x), f)
					}
				}
				for _, x := range []uint64{0, wide.x + 5, 1<<24 - 1, math.MaxUint64} {
					if got := cut.EstimateItem(x); got != 0 {
						t.Fatalf("%s, %s: EstimateItem(%d) = %v of a pair never added", at, step, x, got)
					}
				}
			}
			for x := 0; x < pairs; x++ {
				both(wide.x+uint64(x)<<10, wide.f+int64(x%3))
			}
			requirePacked("filled", pairs)
			requirePacked("packed twice", pairs)
			if err := cut.Merge(cut); err != nil {
				t.Fatal(err)
			}
			if err := plain.Merge(plain); err != nil {
				t.Fatal(err)
			}
			for x := range model {
				model[x] *= 2
			}
			if cut.slots() != tableFor(pairs+1) {
				t.Fatalf("%s: a merge into itself left %d slots", at, cut.slots())
			}
			requirePacked("merged into itself", pairs)
			both(wide.x+uint64(pairs)<<10, wide.f)
			if cut.slots() != tableFor(pairs+1) { // unpacked with room for the new pair
				t.Fatalf("%s: a write left %d slots", at, cut.slots())
			}
			requirePacked("one pair more", pairs+1)
			both(wide.x, -cut.weightOf(wide.x))
			both(wide.x+1<<10, -cut.weightOf(wide.x+1<<10))
			if pairs > 1 {
				requirePacked("two pairs fewer", pairs-1)
			} else if cut.Compact(); cut.p != nil || cut.Bytes() != 0 || cut.n != 0 {
				t.Fatalf("%s: a table whose pairs all cancelled packed into %d bytes", at, cut.Bytes())
			}
			cut.Reset()
			if cut.slots() != 0 || cut.n != 0 || cut.rung != slot4 || cut.Bytes() != 0 {
				t.Fatalf("%s: Reset left %d slots of %d bytes", at, cut.slots(), 4<<cut.rung)
			}
			m.Recycle(cut)
			m.Recycle(plain)
			checkBooks(t, at, m, nil)
		}
	}
}

// TestCountSketchResetDropsCutTable: a packed run goes back to the arena on
// Reset, directly and through Free and Alloc, and the reused sketch starts at
// a first hashed table.
func TestCountSketchResetDropsCutTable(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(11))
	for name, reset := range map[string]func(uint32) uint32{
		"Reset": func(h uint32) uint32 { m.At(h).(*CountSketch).Reset(); return h },
		"Free": func(h uint32) uint32 {
			m.Free(h)
			return m.Alloc()
		},
	} {
		for _, pairs := range []int{1, itemsMinCap - 1, itemsMinCap, itemsMinCap + 1} {
			h := m.Alloc()
			c := m.At(h).(*CountSketch)
			var want []xf
			for x := 0; x < pairs; x++ {
				c.Add(uint64(x)<<24|1, 2)
				want = append(want, xf{uint64(x)<<24 | 1, 2})
			}
			c.Compact()
			checkRun(t, name, c, want)
			checkBooks(t, name, m, []*CountSketch{c})
			h = reset(h)
			got := m.At(h).(*CountSketch)
			if got != c || got.n != 0 || got.p != nil || got.Bytes() != 0 {
				t.Fatalf("%s: a run of %d pairs came back with %d pairs in %d bytes", name, pairs, got.n, got.Bytes())
			}
			checkBooks(t, name, m, []*CountSketch{got})
			for x := uint64(0); x < 2*itemsMinCap; x++ {
				got.Add(x<<20, 3)
			}
			if got.Estimate() != 9*2*itemsMinCap || got.EstimateItem(5<<20) != 3 || got.slots() != tableFor(2*itemsMinCap) {
				t.Fatalf("%s: reused sketch holds %d pairs in %d slots, Estimate %v", name, got.n, got.slots(), got.Estimate())
			}
			m.Free(h)
		}
	}
}

// runPairs reads a packed-run fuzz input: sixteen bytes a pair, x then the
// weight, little-endian, the first pair of each x kept and weights of 0
// dropped, up to max pairs.
func runPairs(data []byte, max int) map[uint64]int64 {
	freq := map[uint64]int64{}
	for ; len(data) >= 16 && len(freq) < max; data = data[16:] {
		x, f := binary.LittleEndian.Uint64(data), int64(binary.LittleEndian.Uint64(data[8:]))
		if _, ok := freq[x]; !ok && f != 0 {
			freq[x] = f
		}
	}
	return freq
}

// runInput is a packed-run fuzz input holding the pairs.
func runInput(pairs ...xf) []byte {
	var data []byte
	for _, p := range pairs {
		data = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(data, p.x), uint64(p.f))
	}
	return data
}

// FuzzPackedRun packs a table of the fuzzer's pairs — one to itemsMax of them,
// identifiers and weights anywhere in their ranges — and fails unless the run
// is the one its layout gives, walks back to the pairs, looks each up and
// misses the rest, keeps Σf²'s two words, answers and marshals as the table
// did, and unpacks to the table's pairs and image, packing again to the same
// bytes; the maker's books are a walk throughout.
func FuzzPackedRun(f *testing.F) {
	m := NewF2Maker(64, 4, hash.New(3)) // itemsMax 64
	f.Add(runInput(xf{5, 1}))
	f.Add(runInput(xf{math.MaxUint64, -1}))
	f.Add(runInput(xf{0, math.MinInt64}, xf{math.MaxUint64, math.MaxInt64}))
	f.Add(runInput(xf{1 << 63, math.MinInt64}, xf{1<<63 - 1, -1}, xf{1<<63 + 1, math.MaxInt64}))
	var full, wide []xf
	for x := uint64(0); int(x) < m.itemsMax; x++ {
		full = append(full, xf{1000 + 3*x, 1 + int64(x%3)})
		wide = append(wide, xf{math.MaxUint64 - x*x*0x9E3779B97F4A7C15, []int64{-1, math.MinInt64, math.MaxInt64, 1 << 40}[x%4]})
	}
	f.Add(runInput(full...))
	f.Add(runInput(wide...))
	f.Fuzz(func(t *testing.T, data []byte) {
		freq := runPairs(data, m.itemsMax)
		if len(freq) == 0 {
			return
		}
		want := ascendingPairs(freq)
		c := m.New().(*CountSketch)
		for _, p := range want {
			c.Add(p.x, p.f)
		}
		if c.dense || int(c.n) != len(want) {
			t.Fatalf("%d pairs left dense=%v, %d pairs", len(want), c.dense, c.n)
		}
		img, _ := c.MarshalBinary()
		est := c.Estimate()
		c.Compact()
		checkRun(t, "packed", c, want)
		checkBooks(t, "packed", m, []*CountSketch{c})
		if again, _ := c.MarshalBinary(); !bytes.Equal(again, img) || c.Estimate() != est {
			t.Fatal("packing changed the image or the estimate")
		}
		for _, p := range want {
			if got := c.weightOf(p.x); got != p.f {
				t.Fatalf("weightOf(%d) = %d in the run, want %d", p.x, got, p.f)
			}
			for _, miss := range []uint64{p.x - 1, p.x + 1} {
				if _, held := freq[miss]; !held && c.weightOf(miss) != 0 {
					t.Fatalf("weightOf(%d) = %d of a pair never added", miss, c.weightOf(miss))
				}
			}
		}
		run := slices.Clone(block(c))
		c.grow() // the unpack a write starts with
		if packed(c) || c.slots() != tableFor(len(want)+1) {
			t.Fatalf("unpacked into %d slots, packed=%v", c.slots(), packed(c))
		}
		if hi, lo := f2Of(want); c.f2hi() != hi || c.f2lo != lo {
			t.Fatalf("unpacked, Σf² is %#x:%#x, the pairs square to %#x:%#x", c.f2hi(), c.f2lo, hi, lo)
		}
		if again, _ := c.MarshalBinary(); !bytes.Equal(again, img) {
			t.Fatal("unpacking changed the image")
		}
		checkBooks(t, "unpacked", m, []*CountSketch{c})
		if c.Compact(); !bytes.Equal(block(c), run) {
			t.Fatal("packing the unpacked table again gave other bytes")
		}
		m.Recycle(c)
		checkBooks(t, "recycled", m, nil)
	})
}
