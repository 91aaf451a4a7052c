package correlated_test

import (
	"math"
	"sort"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/gen"
)

// TestF2ObservedErrorWithinEps asks the seeded streams the root tests use
// for their correlated F2 at sixteen cutoffs per direction and holds each
// answer to ε of the exact one. The median observed error per stream is also
// held to what the commit before exact-until-sketch buckets measured on the
// same questions (PR 15, sparse-counter sketches): keeping a small bucket's
// items instead of sketching them may only tighten the answers.
//
// uniform-150k is TestF2SummaryBothDirections' stream. Fed a tuple at a
// time, its three smallest LE cutoffs read 0.15–0.19 off before this change
// and after it, so it is held to that test's 0.25.
func TestF2ObservedErrorWithinEps(t *testing.T) {
	const eps = 0.15
	for _, tc := range []struct {
		name         string
		stream       func() gen.Stream
		ydom         uint64
		batch        int
		bound        float64
		medianBefore float64
	}{
		{"uniform-150k", func() gen.Stream { return gen.Uniform(150_000, 3000, 1<<16, 7) }, 1 << 16, 1, 0.25, 0.11203},
		{"zipf-100k", func() gen.Stream { return gen.Zipf(100_000, 10_000, 1<<16, 1.1, 9) }, 1 << 16, 1, eps, 0.03974},
		{"zipf-60k-batched", func() gen.Stream { return gen.Zipf(60_000, 100_001, 1_000_001, 1.0, 7) }, 1_000_001, 256, eps, 0.03054},
		{"ethernet-200k", func() gen.Stream { return gen.Ethernet(200_000, 3) }, 0, 64, eps, 0.04673},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tuples := gen.Collect(tc.stream())
			ymax := tc.ydom
			if ymax == 0 {
				for _, tp := range tuples {
					ymax = max(ymax, tp.Y+1)
				}
			}
			s, err := correlated.NewF2Summary(correlated.Options{
				Eps: eps, Delta: 0.1, YMax: ymax - 1,
				MaxStreamLen: 1 << 20, MaxX: 1 << 32, Seed: 42,
				Predicate: correlated.Both,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := exact.New()
			batch := make([]correlated.Tuple, 0, tc.batch)
			for i, tp := range tuples {
				base.Add(tp.X, tp.Y)
				batch = append(batch, correlated.Tuple{X: tp.X, Y: tp.Y, W: 1})
				if len(batch) == tc.batch || i == len(tuples)-1 {
					if err := s.AddBatch(batch); err != nil {
						t.Fatal(err)
					}
					batch = batch[:0]
				}
			}
			var errs []float64
			for i := uint64(1); i <= 16; i++ {
				c := i * (ymax - 1) / 17
				for _, q := range []struct {
					dir   string
					query func(uint64) (float64, error)
					want  float64
				}{{"LE", s.QueryLE, base.F2(c)}, {"GE", s.QueryGE, base.F2Complement(c)}} {
					got, err := q.query(c)
					if err != nil {
						t.Fatalf("%s(%d): %v", q.dir, c, err)
					}
					if q.want == 0 {
						continue
					}
					rel := math.Abs(got-q.want) / q.want
					if rel > tc.bound {
						t.Errorf("%s(%d) = %v, exact %v: relative error %.4f > %v", q.dir, c, got, q.want, rel, tc.bound)
					}
					errs = append(errs, rel)
				}
			}
			sort.Float64s(errs)
			median := errs[len(errs)/2]
			t.Logf("observed error over %d queries: median %.5f, max %.5f (median before: %.5f)",
				len(errs), median, errs[len(errs)-1], tc.medianBefore)
			if median > tc.medianBefore+5e-6 { // the constants carry five decimals
				t.Errorf("median observed error %.5f rose above %.5f", median, tc.medianBefore)
			}
		})
	}
}
