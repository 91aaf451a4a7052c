package sketch

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// An items table is hashed or cut to fit and nothing may depend on which but
// Bytes. The tests below drive a sketch beside a twin that is Compacted after
// every step — so every write to it lands on a cut table — over identifiers on
// both sides of 2^24 and of 2^32 and weights on both sides of 2^7 and of 2^31,
// and beside a model of the pairs both should hold.

// primeTables leaves m's free lists holding tables of every size class that
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
			for k, list := range m.tables {
				for _, tab := range list {
					if len(tab) != 4<<k || slices.Max(tab) != 0 {
						t.Fatalf("priming: the list of %d-word tables holds one of %d words, largest %#x", 4<<k, len(tab), slices.Max(tab))
					}
				}
			}
		}
	}
}

// TestCountSketchCutTableAgrees runs seeded random operation sequences over a
// few registers, in the idiom of TestCountSketchTableWidthsAgree. A merge
// draws each side's operand from either sketch of the other register, so cut
// and hashed tables meet as receiver and operand in all four ways. Both makers
// start with their free lists primed, and every table a step leaves goes back
// to them while the other registers' tables, and the views a merge walks, are
// still read: a table handed back unzeroed, or too early, shows as a pair
// nobody added.
func TestCountSketchCutTableAgrees(t *testing.T) {
	type reg struct {
		a, r  *CountSketch
		model tableModel // the pairs both should hold
	}
	seen := map[string]int{} // steps that ended on, or went through, each case
	for _, g := range []struct{ width, depth int }{{16, 3}, {64, 4}, {356, 4}} {
		for seed := uint64(1); seed <= 12; seed++ {
			m := NewF2Maker(g.width, g.depth, hash.New(4000+seed))
			twin := wideTwin(m)
			primeTables(t, m)
			primeTables(t, twin)
			rng := hash.New(seed)
			// Weights in units alone, up to 2^13 as well, or up to 2^31 too.
			wTier := seed / 3 % 3
			weight := func() int64 {
				var w int64
				switch k := rng.Uint64n(16); {
				case k == 0 && wTier == 2:
					w = 1<<31 - 2 + int64(rng.Uint64n(5))
				case k <= 3 && wTier >= 1:
					w = int64(rng.Uint64n(1 << 13))
				default:
					w = 1 + int64(rng.Uint64n(3))
				}
				if rng.Uint64n(4) == 0 {
					w = -w
				}
				return w
			}
			// A domain on either side of the promotion point and, in a third
			// of the runs each, of 2^24 and of 2^32.
			domain := uint64(m.itemsMax)/2 + 1 + rng.Uint64n(uint64(m.itemsMax)+4)
			ident := func() uint64 {
				x := rng.Uint64n(domain)
				switch seed % 3 {
				case 1:
					x += 1<<24 - domain/2
				case 2:
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
				wasDense := p.r.dense
				// add applies (x, w) to both sketches, by Add or AddSlots. The
				// twin's table was cut: any write must leave it hashed, with
				// room for one pair more than it held.
				add := func(x uint64, w int64, slotted bool) {
					held := p.r.n
					if slotted {
						slots = m.Slots(x, slots[:0])
						p.a.AddSlots(slots, w)
						p.r.AddSlots(slots, w)
					} else {
						p.a.Add(x, w)
						p.r.Add(x, w)
					}
					p.model.add(x, w)
					if w != 0 && !p.r.dense && p.r.slots() != tableFor(held+1) {
						t.Fatalf("%dx%d seed %d step %d: a write to a cut table of %d pairs left %d slots, want %d",
							g.width, g.depth, seed, step, held, p.r.slots(), tableFor(held+1))
					}
				}
				var what string
				switch op := rng.Uint64n(20); {
				case op < 6:
					x, w := ident(), weight()
					what = fmt.Sprintf("Add(%d,%d)", x, w)
					add(x, w, false)
				case op < 10:
					x, w := ident(), weight()
					what = fmt.Sprintf("AddSlots(%d,%d)", x, w)
					add(x, w, true)
				case op < 12:
					// Cancel a pair outright: the cut table is hashed again
					// and the pair leaves it by backward shift.
					x := ident()
					what = fmt.Sprintf("Add(%d,%d) to zero", x, -p.model.freq[x])
					add(x, -p.model.freq[x], op == 10)
				case op < 16:
					q := &regs[(i+int(rng.Uint64n(3)))%3] // itself one time in three
					fromA, fromR := q.a, q.r
					if rng.Uint64n(2) == 0 {
						fromA = q.r // hashed <- cut
					}
					if rng.Uint64n(2) == 0 && q != p {
						fromR = q.a // cut <- hashed
					}
					what = fmt.Sprintf("Merge(hashed <- cut=%v, cut <- cut=%v, self=%v)", fromA == q.r, fromR == q.r, q == p)
					if !p.a.dense && !fromA.dense {
						seen[fmt.Sprintf("merges hashed <- cut=%v", fromA == q.r)]++
					}
					if !p.r.dense && !fromR.dense {
						seen[fmt.Sprintf("merges cut <- cut=%v", fromR == q.r)]++
						if q == p {
							seen["merges of a cut table into itself"]++
						}
					}
					if err := p.a.Merge(fromA); err != nil {
						t.Fatal(err)
					}
					if err := p.r.Merge(fromR); err != nil {
						t.Fatal(err)
					}
					if p.a.dense {
						// A dense receiver adds an items-form operand pair by
						// pair in table order, and past 2^53 its incremental
						// row sums round by that order, as they already do
						// between a live table and a restored one. Re-sum, as
						// a restart does.
						p.a.sumSquares()
						p.r.sumSquares()
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
				}
				p.r.Compact()
				at := fmt.Sprintf("%dx%d seed %d step %d %s", g.width, g.depth, seed, step, what)
				// Estimate, EstimateItem, ThresholdBudget, Size, form, counters
				// and image bytes.
				sameSketch(t, at, p.a, p.r)
				if p.r.dense {
					if !wasDense {
						seen["promotions of a cut table"]++
					}
					continue
				}
				if p.a.n != len(p.model.freq) || p.r.n != len(p.model.freq) || !p.r.cut() || p.a.rung != p.r.rung {
					t.Fatalf("%s: %d pairs (%d-byte slots), twin %d in %d slots (%d-byte), model %d",
						at, p.a.n, 4<<p.a.rung, p.r.n, p.r.slots(), 4<<p.r.rung, len(p.model.freq))
				}
				// Exactly the pairs: whole words, so an odd number of four-byte
				// slots leaves the last word's upper half, which must read empty.
				if want := (4<<p.r.rung*p.r.n + 7) &^ 7; p.r.Bytes() != want {
					t.Fatalf("%s: Bytes = %d right after a cut to %d pairs of %d bytes, want %d", at, p.r.Bytes(), p.r.n, 4<<p.r.rung, want)
				}
				if p.r.slots() != p.r.n {
					if x, f := p.r.pairAt(p.r.n); p.r.slots() != p.r.n+1 || x != 0 || f != 0 {
						t.Fatalf("%s: %d pairs cut into %d slots, the spare holding (%d,%d)", at, p.r.n, p.r.slots(), x, f)
					}
					seen["four-byte cut tables with a spare half word"]++
				}
				// Every pair is there, in ascending x, and nothing else is: the
				// binary search finds what is present and misses what is absent,
				// on either side of 2^24 and of 2^32.
				var prev uint64
				for k := range p.r.n {
					x, f := p.r.pairAt(k)
					if f == 0 || f != p.model.freq[x] || (k > 0 && x <= prev) {
						t.Fatalf("%s: slot %d of the cut table holds (%d,%d) after x=%d, model weight %d", at, k, x, f, prev, p.model.freq[x])
					}
					if got := p.r.EstimateItem(x); got != float64(f) {
						t.Fatalf("%s: cut EstimateItem(%d) = %v, the table holds %d", at, x, got, f)
					}
					prev = x
				}
				for _, x := range []uint64{ident(), ident(), 0, 7, 1<<24 - 1, 1 << 24, 1<<32 - 1, 1 << 32, 1<<32 + 7, math.MaxUint64} {
					if a, r := p.a.EstimateItem(x), p.r.EstimateItem(x); a != float64(p.model.freq[x]) || r != a {
						t.Fatalf("%s: EstimateItem(%d) = %v, cut %v, model %d", at, x, a, r, p.model.freq[x])
					}
				}
				seen[fmt.Sprintf("cut tables of %d-byte slots", 4<<p.r.rung)]++
			}
		}
	}
	for _, name := range []string{
		"cut tables of 4-byte slots", "cut tables of 8-byte slots", "cut tables of 16-byte slots",
		"four-byte cut tables with a spare half word", "promotions of a cut table", "merges of a cut table into itself",
		"merges hashed <- cut=false", "merges hashed <- cut=true", "merges cut <- cut=false", "merges cut <- cut=true",
	} {
		if seen[name] < 50 {
			t.Errorf("only %d %s", seen[name], name)
		}
	}
}

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
	if cut.dense || cut.n != m.itemsMax || cut.slots() != tableFor(m.itemsMax+1) {
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
				if !cut.cut() || cut.n != pairs || int(cut.rung) != rung || cut.Bytes() != (pairs*4<<rung+7)&^7 {
					t.Fatalf("%s, %s: cut=%v, %d pairs in %d slots of %d bytes, %d bytes",
						at, step, cut.cut(), cut.n, cut.slots(), 4<<cut.rung, cut.Bytes())
				}
				sameSketch(t, at+", "+step, plain, cut)
				for k := range cut.slots() {
					x, f := cut.pairAt(k)
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
			if cut.slots() != tableFor(pairs+2) {
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
// the sketch without it, directly and through Recycle, or the reused sketch
// probes out of range.
func TestCountSketchResetDropsCutTable(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(11))
	for name, reset := range map[string]func(*CountSketch) *CountSketch{
		"Reset": func(c *CountSketch) *CountSketch { c.Reset(); return c },
		"Recycle": func(c *CountSketch) *CountSketch {
			m.Recycle(c)
			return m.New().(*CountSketch)
		},
	} {
		for _, pairs := range []int{1, itemsMinCap - 1, itemsMinCap, itemsMinCap + 1} {
			c := m.New().(*CountSketch)
			for x := 0; x < pairs; x++ {
				c.Add(uint64(x)<<24|1, 2)
			}
			c.Compact()
			if !c.cut() || c.Bytes() != 8*pairs {
				t.Fatalf("%s: %d pairs cut to %d bytes", name, pairs, c.Bytes())
			}
			got := reset(c)
			if got != c || got.n != 0 || got.slots() != 0 {
				t.Fatalf("%s: a cut table of %d pairs came back with %d pairs in %d slots", name, pairs, got.n, got.slots())
			}
			for x := uint64(0); x < 2*itemsMinCap; x++ {
				got.Add(x<<20, 3)
			}
			if got.Estimate() != 9*2*itemsMinCap || got.EstimateItem(5<<20) != 3 || got.slots() != tableFor(2*itemsMinCap) {
				t.Fatalf("%s: reused sketch holds %d pairs in %d slots, Estimate %v", name, got.n, got.slots(), got.Estimate())
			}
			m.Recycle(got)
		}
	}
}
