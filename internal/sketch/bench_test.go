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

// BenchmarkCountSketchCompact measures cutting a hashed table to fit, as the
// core structure does once for each bucket that closes, at the table sizes
// between the first and the promotion point. B/hashed is what the table held
// before, B/sketch after.
func BenchmarkCountSketchCompact(b *testing.B) {
	for _, pairs := range []int{8, 64, 256, 356} {
		b.Run(fmt.Sprint(pairs), func(b *testing.B) {
			m := NewF2Maker(356, 4, hash.New(1))
			cs := m.New().(*CountSketch)
			for x := 0; x < pairs; x++ {
				cs.Add(uint64(x)*0x9E3779&(1<<24-1), 1)
			}
			hashed, slots, before := slices.Clone(cs.tab), cs.slots(), cs.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Compact hands the hashed table back zeroed: take it again as
				// it was, which is a copy beside Compact's sort.
				cs.retable(slots, cs.rung)
				copy(cs.tab, hashed)
				cs.Compact()
			}
			b.ReportMetric(float64(before), "B/hashed")
			b.ReportMetric(float64(cs.Bytes()), "B/sketch")
		})
	}
}

// BenchmarkCountSketchGrowPromote measures the life most buckets of the
// reduction lead: one sketch taken from its first pair through every table
// size to one pair past itemsMax, where it promotes, and recycled. Warm, every
// table and the array come from the maker's lists and go back to them, so
// B/op and allocs/op are what that life still costs the collector.
func BenchmarkCountSketchGrowPromote(b *testing.B) {
	m := NewF2Maker(356, 4, hash.New(1))
	var slab Slots
	for x := 0; x <= m.itemsMax; x++ {
		slab = m.Slots(uint64(x)*0x9E3779&(1<<24-1), slab)
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
