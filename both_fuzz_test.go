package correlated

import (
	"bytes"
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/hash"
)

// FuzzBothSides feeds one random weighted stream, cut into batches as the
// fuzz bytes say, to a Both summary and to an LE-only and a GE-only one with
// the same Options, and after every batch asks the three at random cutoffs:
// the Both summary must answer QueryLE as the LE-only one and QueryGE as the
// GE-only one, bit for bit and error for error, hold no more counters than
// the two together, and marshal to an image that restores to the same bytes.
// A tiny α makes every direction discard from its end of every level early.
// An input is at most 16 batches: the fuzzer shrinks each new input by
// running every cut of its bytes, and a longer one stalls the search.
func FuzzBothSides(f *testing.F) {
	f.Add(uint64(1), []byte{1, 64, 200, 7, 255, 3, 90, 17, 128, 5})
	f.Add(uint64(2), bytes.Repeat([]byte{255}, 24))
	f.Add(uint64(3), bytes.Repeat([]byte{0, 33}, 40))
	f.Add(uint64(7), []byte{8, 250, 16, 100, 1, 1, 1, 180, 60, 220, 2, 40})
	f.Add(uint64(24), bytes.Repeat([]byte{95}, 16)) // Fk, every batch at its largest
	aggs := []core.Aggregate{core.F2Aggregate(), core.CountAggregate(), core.SumAggregate(), core.FkAggregate(3)}
	f.Fuzz(func(t *testing.T, seed uint64, cuts []byte) {
		if len(cuts) > 16 {
			cuts = cuts[:16]
		}
		o := Options{
			Eps: 0.25, Delta: 0.1, YMax: 1<<10 - 1,
			MaxStreamLen: 1 << 14, MaxX: 1 << 10,
			Alpha: 4 + int(seed%8), Seed: seed,
		}
		agg := aggs[seed/8%uint64(len(aggs))]
		var sides [3]summary
		for i, pred := range []Predicate{Both, LE, GE} {
			o := o
			o.Predicate = pred
			var err error
			if sides[i], err = newSummary(agg, o); err != nil {
				t.Fatal(err)
			}
		}
		both, le, ge := sides[0], sides[1], sides[2]
		rng := hash.New(seed)
		// Streams lean on a few y values, so equal-y runs and singletons
		// occur, and on a few identifiers, so sketches grow past their items.
		for bi, cut := range cuts {
			batch := make([]Tuple, 1+int(cut)%96)
			for i := range batch {
				y := rng.Uint64n(o.YMax + 1)
				if rng.Uint64n(3) == 0 {
					y = rng.Uint64n(8) * 131
				}
				batch[i] = Tuple{X: rng.Uint64n(64 << (cut % 5)), Y: y, W: int64(rng.Uint64n(4))}
			}
			for _, d := range sides {
				if err := d.AddBatch(cloneBatch(batch)); err != nil {
					t.Fatal(err)
				}
			}
			for range 4 {
				c := rng.Uint64n(o.YMax + 2)
				for _, q := range []struct {
					name      string
					got, want func(uint64) (float64, error)
				}{{"LE", both.QueryLE, le.QueryLE}, {"GE", both.QueryGE, ge.QueryGE}} {
					g, gerr := q.got(c)
					w, werr := q.want(c)
					if gerr != werr || math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("after batch %d: Both %s(%d) = %v (%v), one-sided %v (%v)", bi, q.name, c, g, gerr, w, werr)
					}
				}
			}
			if sb, sl, sg := both.s.Space(), le.s.Space(), ge.s.Space(); sb > sl+sg {
				t.Fatalf("after batch %d: Both holds %d counters, LE and GE apart %d and %d", bi, sb, sl, sg)
			}
		}
		img, err := both.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		o.Predicate = Both
		back, err := newSummary(agg, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		if again, err := back.MarshalBinary(); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("the image does not round-trip byte for byte (%v)", err)
		}
	})
}
