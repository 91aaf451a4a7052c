package sketch

import (
	"fmt"
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// An items table is hashed or cut to fit and nothing may depend on which but
// Bytes. The tests below pin the edges of a cut: the promotion point, the
// fewest pairs, and a Reset.

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

// TestCountSketchCutTableAtThePromotionPoint: a cut table holding itemsMax
// pairs takes an update to one of them and stays in the items form, and takes
// one pair more by promoting, to the counters of a sketch that was never cut.
func TestCountSketchCutTableAtThePromotionPoint(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(77))
	cut, plain := m.New().(*CountSketch), m.New().(*CountSketch)
	both := func(step string, x uint64, w int64) {
		cut.Add(x, w)
		plain.Add(x, w)
		sameSketch(t, step, plain, cut)
	}
	for x := 0; x < m.itemsMax; x++ {
		both("fill", uint64(1000+x), int64(1+x%3))
	}
	cut.Compact()
	if cut.dense || cut.Bytes() != 4*m.itemsMax {
		t.Fatalf("dense=%v holding %d bytes after a cut to %d pairs", cut.dense, cut.Bytes(), m.itemsMax)
	}
	sameSketch(t, "cut", plain, cut)
	both("revisit", 1000, 7)
	if cut.dense || int(cut.n) != m.itemsMax || cut.slots() != tableFor(m.itemsMax+1) {
		t.Fatalf("an update to a held pair left dense=%v, %d pairs in %d slots", cut.dense, cut.n, cut.slots())
	}
	cut.Compact()
	both("one more", 5000, 1)
	if !cut.dense {
		t.Fatal("one pair past itemsMax did not promote a cut table")
	}
}

// TestCountSketchCutFewPairs: a table cut to 1, 7, 8 or 9 pairs — an odd count
// leaves half a word spare at four bytes a slot, and eight slots is also the
// size of a first hashed table — reads as cut at every rung, holds whole words
// and nothing beyond the pairs, answers and marshals as the hashed table did,
// and takes a merge into itself, a write and a Reset.
func TestCountSketchCutFewPairs(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(11))
	primeTables(t, m)
	for rung, wide := range []xf{slot4: {1, 2}, slot8: {1 << 24, 2}, slot16: {1, 1 << 31}} {
		for _, pairs := range []int{1, 7, 8, 9} {
			at := fmt.Sprintf("%d pairs of %d bytes", pairs, 4<<rung)
			cut, plain := m.New().(*CountSketch), m.New().(*CountSketch)
			both := func(x uint64, w int64) {
				cut.Add(x, w)
				plain.Add(x, w)
			}
			requireCut := func(step string, pairs int) {
				t.Helper()
				cut.Compact()
				if !cut.cut() || int(cut.n) != pairs || int(cut.rung) != rung || cut.Bytes() != (pairs*4<<rung+7)&^7+hiBytes(uint8(rung), pairs) {
					t.Fatalf("%s, %s: cut=%v, %d pairs in %d slots of %d bytes, %d bytes",
						at, step, cut.cut(), cut.n, cut.slots(), 4<<cut.rung, cut.Bytes())
				}
				sameSketch(t, at+", "+step, plain, cut)
				for k := range cut.slots() {
					x, f := cut.table().pairAt(k)
					if (k < pairs) != (f != 0) || cut.EstimateItem(x) != float64(f) || plain.EstimateItem(x) != float64(f) {
						t.Fatalf("%s, %s: slot %d holds (%d,%d)", at, step, k, x, f)
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
			requireCut("filled", pairs)
			requireCut("cut twice", pairs)
			if err := cut.Merge(cut); err != nil {
				t.Fatal(err)
			}
			if err := plain.Merge(plain); err != nil {
				t.Fatal(err)
			}
			if cut.slots() != tableFor(pairs+1) {
				t.Fatalf("%s: a merge into itself left %d slots", at, cut.slots())
			}
			requireCut("merged into itself", pairs)
			both(wide.x+uint64(pairs)<<10, wide.f)
			if cut.slots() != tableFor(pairs+1) { // hashed again with room for the new pair
				t.Fatalf("%s: a write left %d slots", at, cut.slots())
			}
			requireCut("one pair more", pairs+1)
			both(wide.x, -cut.weightOf(wide.x))
			both(wide.x+1<<10, -cut.weightOf(wide.x+1<<10))
			requireCut("two pairs fewer", pairs-1)
			cut.Reset()
			if cut.slots() != 0 || cut.n != 0 || cut.rung != slot4 || cut.Bytes() != 0 {
				t.Fatalf("%s: Reset left %d slots of %d bytes", at, cut.slots(), 4<<cut.rung)
			}
			m.Recycle(cut)
			m.Recycle(plain)
		}
	}
}

// TestCountSketchResetDropsCutTable: a table cut to exactly itemsMinCap pairs
// has the size of a first hashed table, but not its layout. Reset must leave
// the sketch without it, directly and through Free and Alloc, or the reused sketch
// probes out of range.
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
			for x := 0; x < pairs; x++ {
				c.Add(uint64(x)<<24|1, 2)
			}
			c.Compact()
			if !c.cut() || c.Bytes() != 8*pairs+hiBytes(c.rung, pairs) {
				t.Fatalf("%s: %d pairs cut to %d bytes", name, pairs, c.Bytes())
			}
			h = reset(h)
			got := m.At(h).(*CountSketch)
			if got != c || got.n != 0 || got.slots() != 0 {
				t.Fatalf("%s: a cut table of %d pairs came back with %d pairs in %d slots", name, pairs, got.n, got.slots())
			}
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
