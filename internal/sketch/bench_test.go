package sketch

import (
	"fmt"
	"slices"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// Microbenchmarks for the CountSketch hot path: plain Add (hashes per
// row), the hash-once Slots/AddSlots split the core ingest path uses, and
// the closing-check Estimate. All must be allocation-free.

func benchF2Maker() *F2Maker {
	return NewF2Maker(50, 4, hash.New(1))
}

// addRegimes are the lives a CountSketch can lead, at the geometry corrd
// runs with ε = 0.15 (356×4, promotion past 356 distinct items). Each fixes
// how many distinct items a sketch sees and how heavy its warm-up is, so
// every iteration count measures the same form at the same stored width:
// b.N only repeats the cycle, adding one to every item and taking it off again
// the next time round. Each reports the bytes its sketch ends on.
var addRegimes = []struct {
	name  string
	items int // distinct items per sketch
	renew bool
	warm  int64 // weight of the warm-up adds; the measured ones weigh ±1
}{
	{"items/4", 32, false, 1},             // never promotes: one table probe per add, 4-byte slots
	{"items/8", 32, false, 1 << 8},        // ... over a table the warm-up's weights widened to 8
	{"items/16", 32, false, 1 << 40},      // ... and to 16
	{"promote", 512, true, 1},             // a new sketch every 512 adds: table growth, promotion, reset
	{"dense/int8", 4096, false, 1},        // promoted during warm-up: the dense loop, as nearly every bucket runs it
	{"dense/int16", 4096, false, 1 << 8},  // ... over an array widened once
	{"dense/int64", 4096, false, 1 << 40}, // ... and twice
}

func benchAddRegimes(b *testing.B, slotted bool) {
	for _, r := range addRegimes {
		b.Run(r.name, func(b *testing.B) {
			m := NewF2Maker(356, 4, hash.New(1))
			var slab Slots
			for x := 0; x < r.items; x++ {
				slab = m.Slots(uint64(x), slab)
			}
			d := m.SlotWidth()
			add := func(cs *CountSketch, x int, w int64) {
				if slotted {
					cs.AddSlots(slab[x*d:(x+1)*d], w)
				} else {
					cs.Add(uint64(x), w)
				}
			}
			cs := m.New().(*CountSketch)
			for x := 0; x < r.items && !r.renew; x++ {
				add(cs, x, r.warm) // reach the regime's form and width
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := i % r.items
				if r.renew && x == 0 {
					m.Recycle(cs)
					cs = m.New().(*CountSketch)
				}
				add(cs, x, 1-2*int64((i/r.items)&1))
			}
			b.ReportMetric(float64(cs.Bytes()), "B/sketch")
		})
	}
}

// BenchmarkCountSketchAdd measures plain Add (one hash per row) in each
// regime.
func BenchmarkCountSketchAdd(b *testing.B) { benchAddRegimes(b, false) }

// BenchmarkCountSketchAddSlots measures the fan-out side alone: slots are
// precomputed, as they are when one tuple updates many sketches. Its dense
// regimes are the innermost loop of the ingest path at each stored width.
func BenchmarkCountSketchAddSlots(b *testing.B) { benchAddRegimes(b, true) }

// closedArray returns a dense sketch of m as a closed bucket holds one: n
// distinct identifiers drawn from a seeded generator over 2^24, weight one
// each, so its counters sit near ±√(n/w), most of them inside −7…7.
func closedArray(m *F2Maker, n int) *CountSketch {
	cs := m.New().(*CountSketch)
	rng := hash.New(2)
	for range n {
		cs.Add(rng.Uint64n(1<<24), 1)
	}
	return cs
}

// BenchmarkCountSketchCompact measures packing a hashed table into a run, as
// the core structure does once for each bucket that closes, at the table
// sizes between the first and the promotion point, and a dense array into
// four bits a counter (dense). B/hashed is what the table held before, B/plain
// the array, and B/sketch what either holds after.
func BenchmarkCountSketchCompact(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		m := NewF2Maker(356, 4, hash.New(1))
		cs := closedArray(m, 4*356)
		plain := slices.Clone(countersOf[int8](cs))
		before := cs.Bytes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Compact hands the plain array back zeroed: take it again as it
			// was, which is a copy beside Compact's coding.
			cs.Reset()
			cs.allocDense()
			copy(countersOf[int8](cs), plain)
			cs.Compact()
		}
		b.ReportMetric(float64(before), "B/plain")
		b.ReportMetric(float64(cs.Bytes()), "B/sketch")
	})
	for _, pairs := range []int{8, 64, 256, 356} {
		b.Run(fmt.Sprint(pairs), func(b *testing.B) {
			m := NewF2Maker(356, 4, hash.New(1))
			cs := m.New().(*CountSketch)
			for x := 0; x < pairs; x++ {
				cs.Add(uint64(x)*0x9E3779&(1<<24-1), 1)
			}
			hashed, step, before := slices.Clone(cs.table().tab), cs.step, cs.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Compact hands the hashed table back zeroed: take it again as
				// it was, which is a copy beside Compact's sort and coding.
				m.release(cs.retable(step, cs.rung))
				copy(cs.table().tab, hashed)
				cs.Compact()
			}
			b.ReportMetric(float64(before), "B/hashed")
			b.ReportMetric(float64(cs.Bytes()), "B/sketch")
		})
	}
}

// BenchmarkCountSketchAddCounters measures adding one closed bucket's array,
// at corrd's geometry (356×4), into a query's composition held at int64, as
// Compose does for each dense part: from the plain int8 array, and from the
// packed one Compact leaves.
func BenchmarkCountSketchAddCounters(b *testing.B) {
	for _, packed := range []bool{false, true} {
		name := "plain"
		if packed {
			name = "packed"
		}
		b.Run(name, func(b *testing.B) {
			m := NewF2Maker(356, 4, hash.New(1))
			cs := closedArray(m, 4*356)
			if packed {
				if cs.Compact(); cs.cw != 0 {
					b.Fatal("the array did not pack")
				}
			}
			out := m.New().(*CountSketch)
			out.allocDense()
			for out.cw < 8 {
				out.widen()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.addCounters(cs)
			}
			b.ReportMetric(float64(cs.Bytes()), "B/sketch")
		})
	}
}

// BenchmarkCountSketchGrowPromote measures the life most buckets of the
// reduction lead: one sketch taken from its first pair through every table
// size to one pair past itemsMax, where it promotes, and recycled. Warm, every
// table and the array come from the maker's lists and go back to them, so
// B/op and allocs/op are what that life still costs the collector. The
// identifiers are distinct and drawn from a seeded generator over 2^24, as a
// bucket's are: an arithmetic progression clusters under the tables' home
// slots and makes every lookup probe a long run.
func BenchmarkCountSketchGrowPromote(b *testing.B) {
	m := NewF2Maker(356, 4, hash.New(1))
	var slab Slots
	rng, seen := hash.New(2), make(map[uint64]bool)
	for len(seen) <= m.itemsMax {
		if x := rng.Uint64n(1 << 24); !seen[x] {
			seen[x] = true
			slab = m.Slots(x, slab)
		}
	}
	d := m.SlotWidth()
	life := func() {
		cs := m.New().(*CountSketch)
		for x := 0; x <= m.itemsMax; x++ {
			cs.AddSlots(slab[x*d:(x+1)*d], 1)
		}
		if !cs.dense {
			b.Fatal("the sketch did not promote")
		}
		m.Recycle(cs)
	}
	life() // fill the lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		life()
	}
}

// BenchmarkCountSketchSlots measures the hash-once side alone.
func BenchmarkCountSketchSlots(b *testing.B) {
	m := benchF2Maker()
	scratch := make(Slots, 0, m.SlotWidth())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = m.Slots(uint64(i), scratch[:0])
	}
	_ = scratch
}

func BenchmarkCountSketchEstimate(b *testing.B) {
	m := benchF2Maker()
	cs := m.New().(*CountSketch)
	for i := 0; i < 10_000; i++ {
		cs.Add(uint64(i%100), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var v float64
	for i := 0; i < b.N; i++ {
		v = cs.Estimate()
	}
	_ = v
}

// BenchmarkCountSketchWalk measures reading an items-form sketch's pairs a
// buffer at a time, as a query's composition does, from a hashed table and
// from the packed run Compact leaves, at table sizes between the first and
// the promotion point. The identifiers are distinct and drawn from a seeded
// generator over 2^24, as a bucket's are.
func BenchmarkCountSketchWalk(b *testing.B) {
	for _, n := range []int{8, 64, 356} {
		for _, packed := range []bool{false, true} {
			name := fmt.Sprintf("hashed/%d", n)
			if packed {
				name = fmt.Sprintf("packed/%d", n)
			}
			b.Run(name, func(b *testing.B) {
				m := NewF2Maker(356, 4, hash.New(1))
				cs := m.New().(*CountSketch)
				rng := hash.New(2)
				for int(cs.n) < n {
					cs.Add(rng.Uint64n(1<<24), 1)
				}
				if packed {
					cs.Compact()
				}
				var w pairs
				var sum uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs.walk(&w)
					for x, _, ok := w.next(); ok; x, _, ok = w.next() {
						sum += x
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pair")
				_ = sum
			})
		}
	}
}
