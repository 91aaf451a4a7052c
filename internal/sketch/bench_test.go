package sketch

import (
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// Microbenchmarks for the CountSketch hot path: plain Add (hashes per
// row), the hash-once Slots/AddSlots split the core ingest path uses, and
// the closing-check Estimate. All must be allocation-free.

func benchF2Maker() *F2Maker {
	return NewF2Maker(50, 4, hash.New(1))
}

// addRegimes are the three lives a CountSketch can lead, at the geometry
// corrd runs with ε = 0.15 (356×4, promotion past 356 distinct items).
// Each fixes how many distinct items a sketch sees, so every iteration
// count measures the same form: b.N only repeats the cycle.
var addRegimes = []struct {
	name  string
	items int // distinct items per sketch
	renew bool
}{
	{"items", 32, false},   // never promotes: one table probe per add
	{"promote", 512, true}, // a new sketch every 512 adds: table growth, promotion, reset
	{"dense", 4096, false}, // promoted during warm-up: the dense loop
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
			add := func(cs *CountSketch, x int) {
				if slotted {
					cs.AddSlots(slab[x*d:(x+1)*d], 1)
				} else {
					cs.Add(uint64(x), 1)
				}
			}
			cs := m.New().(*CountSketch)
			for x := 0; x < r.items && !r.renew; x++ {
				add(cs, x) // warm-up: reach the regime's form
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := i % r.items
				if r.renew && x == 0 {
					m.Recycle(cs)
					cs = m.New().(*CountSketch)
				}
				add(cs, x)
			}
		})
	}
}

// BenchmarkCountSketchAdd measures plain Add (one hash per row) in each
// regime.
func BenchmarkCountSketchAdd(b *testing.B) { benchAddRegimes(b, false) }

// BenchmarkCountSketchAddSlots measures the fan-out side alone: slots are
// precomputed, as they are when one tuple updates many sketches. Its dense
// regime is the innermost loop of the ingest path.
func BenchmarkCountSketchAddSlots(b *testing.B) { benchAddRegimes(b, true) }

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
