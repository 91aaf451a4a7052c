// Benchmarks regenerating the paper's evaluation, one per figure and
// table (README "Layout": cmd/corrbench, whose usage comment is the index).
// Each bench processes a scaled stream and reports the paper's metric
// (summary space in counters/tuples, or relative error ×1000) via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the series the figures plot. cmd/corrbench regenerates the same
// series at full scale with plot-ready TSV output.
package correlated_test

import (
	"fmt"
	"sort"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/turnstile"
)

const (
	benchN    = 200_000 // per-iteration stream size for figure benches
	benchYMax = 1_000_000
	benchXF2  = 500_001
	benchXF0  = 1_000_001
)

func f2Stream(name string, n int) gen.Stream {
	switch name {
	case "uniform":
		return gen.Uniform(n, benchXF2, benchYMax+1, 1)
	case "zipf1":
		return gen.Zipf(n, benchXF2, benchYMax+1, 1.0, 1)
	case "zipf2":
		return gen.Zipf(n, benchXF2, benchYMax+1, 2.0, 1)
	}
	panic("unknown dataset " + name)
}

func f0Stream(name string, n int) gen.Stream {
	switch name {
	case "ethernet":
		return gen.Ethernet(n, 1)
	case "uniform":
		return gen.Uniform(n, benchXF0, benchYMax+1, 1)
	case "zipf1":
		return gen.Zipf(n, benchXF0, benchYMax+1, 1.0, 1)
	case "zipf2":
		return gen.Zipf(n, benchXF0, benchYMax+1, 2.0, 1)
	}
	panic("unknown dataset " + name)
}

func buildF2(b *testing.B, eps float64, name string, n int) *correlated.F2Summary {
	b.Helper()
	s, err := correlated.NewF2Summary(correlated.Options{
		Eps: eps, Delta: 0.1, YMax: benchYMax,
		MaxStreamLen: uint64(n), MaxX: benchXF2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := f2Stream(name, n)
	for {
		t, ok := st.Next()
		if !ok {
			return s
		}
		if err := s.Add(t.X, t.Y); err != nil {
			b.Fatal(err)
		}
	}
}

func buildF0(b *testing.B, eps float64, name string, n int) *correlated.F0Summary {
	b.Helper()
	xdom, ymax := uint64(benchXF0), uint64(benchYMax)
	if name == "ethernet" {
		xdom, ymax = gen.EthernetXDomain, uint64(n)
	}
	s, err := correlated.NewF0Summary(correlated.Options{
		Eps: eps, Delta: 0.1, YMax: ymax,
		MaxStreamLen: uint64(n), MaxX: xdom, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := f0Stream(name, n)
	for {
		t, ok := st.Next()
		if !ok {
			return s
		}
		if err := s.Add(t.X, t.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_F2SpaceVsEpsilon regenerates Figure 2: F2 summary space as
// ε varies, for the three Section 5.1 datasets.
func BenchmarkFig2_F2SpaceVsEpsilon(b *testing.B) {
	for _, eps := range []float64{0.14, 0.20, 0.25} {
		for _, ds := range []string{"uniform", "zipf1", "zipf2"} {
			b.Run(fmt.Sprintf("eps=%.2f/%s", eps, ds), func(b *testing.B) {
				var space int64
				for i := 0; i < b.N; i++ {
					space = buildF2(b, eps, ds, benchN).Space()
				}
				b.ReportMetric(float64(space), "counters")
				b.ReportMetric(float64(space)/float64(benchN), "counters/tuple")
			})
		}
	}
}

// spaceVsN regenerates Figures 3-5: F2 summary space as the stream grows,
// at a fixed ε.
func spaceVsN(b *testing.B, eps float64) {
	for _, n := range []int{benchN, 2 * benchN, 4 * benchN} {
		b.Run(fmt.Sprintf("n=%d/uniform", n), func(b *testing.B) {
			var space int64
			for i := 0; i < b.N; i++ {
				space = buildF2(b, eps, "uniform", n).Space()
			}
			b.ReportMetric(float64(space), "counters")
		})
	}
}

// BenchmarkFig3_F2SpaceVsN_Eps015 regenerates Figure 3 (ε = 0.15).
func BenchmarkFig3_F2SpaceVsN_Eps015(b *testing.B) { spaceVsN(b, 0.15) }

// BenchmarkFig4_F2SpaceVsN_Eps020 regenerates Figure 4 (ε = 0.20).
func BenchmarkFig4_F2SpaceVsN_Eps020(b *testing.B) { spaceVsN(b, 0.20) }

// BenchmarkFig5_F2SpaceVsN_Eps025 regenerates Figure 5 (ε = 0.25).
func BenchmarkFig5_F2SpaceVsN_Eps025(b *testing.B) { spaceVsN(b, 0.25) }

// BenchmarkFig6_F0SpaceVsEpsilon regenerates Figure 6: F0 summary space vs
// ε across the four Section 5.2 datasets; the Ethernet trace's small
// identifier domain makes it far cheaper.
func BenchmarkFig6_F0SpaceVsEpsilon(b *testing.B) {
	for _, eps := range []float64{0.05, 0.10, 0.20, 0.30} {
		for _, ds := range []string{"ethernet", "uniform", "zipf1", "zipf2"} {
			b.Run(fmt.Sprintf("eps=%.2f/%s", eps, ds), func(b *testing.B) {
				var space int64
				for i := 0; i < b.N; i++ {
					space = buildF0(b, eps, ds, benchN).Space()
				}
				b.ReportMetric(float64(space), "tuples")
			})
		}
	}
}

// BenchmarkFig7_F0SpaceVsN regenerates Figure 7: F0 summary space vs
// stream size at ε = 0.1 (near-flat).
func BenchmarkFig7_F0SpaceVsN(b *testing.B) {
	for _, n := range []int{benchN, 2 * benchN, 4 * benchN} {
		b.Run(fmt.Sprintf("n=%d/uniform", n), func(b *testing.B) {
			var space int64
			for i := 0; i < b.N; i++ {
				space = buildF0(b, 0.1, "uniform", n).Space()
			}
			b.ReportMetric(float64(space), "tuples")
		})
	}
}

// BenchmarkTableA_F2Accuracy regenerates the Section 5.1 prose claim:
// relative error within ε. The reported metric is max relative error
// ×1000 over decile cutoffs.
func BenchmarkTableA_F2Accuracy(b *testing.B) {
	for _, eps := range []float64{0.15, 0.25} {
		b.Run(fmt.Sprintf("eps=%.2f/uniform", eps), func(b *testing.B) {
			var maxRel float64
			for i := 0; i < b.N; i++ {
				s := buildF2(b, eps, "uniform", benchN)
				base := exact.New()
				st := f2Stream("uniform", benchN)
				for {
					t, ok := st.Next()
					if !ok {
						break
					}
					base.Add(t.X, t.Y)
				}
				maxRel = 0
				for d := 1; d <= 10; d++ {
					c := uint64(d) * benchYMax / 10
					got, err := s.QueryLE(c)
					if err != nil {
						b.Fatal(err)
					}
					want := base.F2(c)
					rel := (got - want) / want
					if rel < 0 {
						rel = -rel
					}
					if rel > maxRel {
						maxRel = rel
					}
				}
				if maxRel > eps {
					b.Errorf("max rel err %v exceeds eps %v", maxRel, eps)
				}
			}
			b.ReportMetric(maxRel*1000, "maxRelErr*1e3")
		})
	}
}

// BenchmarkTableB_UpdateThroughput regenerates the per-record processing
// time claim: ns/op is the per-tuple update cost.
func BenchmarkTableB_UpdateThroughput(b *testing.B) {
	for _, ds := range []string{"uniform", "zipf1", "zipf2"} {
		b.Run("F2/"+ds, func(b *testing.B) {
			s, err := correlated.NewF2Summary(correlated.Options{
				Eps: 0.2, Delta: 0.1, YMax: benchYMax,
				MaxStreamLen: uint64(b.N) + 1, MaxX: benchXF2, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			tuples := gen.Collect(f2Stream(ds, benchN))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := tuples[i%len(tuples)]
				if err := s.Add(t.X, t.Y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("F0/uniform", func(b *testing.B) {
		s, err := correlated.NewF0Summary(correlated.Options{
			Eps: 0.1, Delta: 0.1, YMax: benchYMax,
			MaxStreamLen: uint64(b.N) + 1, MaxX: benchXF0, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		tuples := gen.Collect(f0Stream("uniform", benchN))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := tuples[i%len(tuples)]
			if err := s.Add(t.X, t.Y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTableC_F0Accuracy regenerates the Section 5.2 accuracy claim.
func BenchmarkTableC_F0Accuracy(b *testing.B) {
	b.Run("eps=0.10/uniform", func(b *testing.B) {
		var maxRel float64
		for i := 0; i < b.N; i++ {
			s := buildF0(b, 0.1, "uniform", benchN)
			base := exact.New()
			st := f0Stream("uniform", benchN)
			for {
				t, ok := st.Next()
				if !ok {
					break
				}
				base.Add(t.X, t.Y)
			}
			maxRel = 0
			for d := 1; d <= 10; d++ {
				c := uint64(d) * benchYMax / 10
				got, err := s.QueryLE(c)
				if err != nil {
					b.Fatal(err)
				}
				want := base.F0(c)
				rel := (got - want) / want
				if rel < 0 {
					rel = -rel
				}
				if rel > maxRel {
					maxRel = rel
				}
			}
		}
		b.ReportMetric(maxRel*1000, "maxRelErr*1e3")
	})
}

// BenchmarkGreaterThanMultipass measures the Theorem 7 side of the
// Section 4 tradeoff: solving a 256-bit GREATER-THAN instance exactly in
// O(log ymax) passes.
func BenchmarkGreaterThanMultipass(b *testing.B) {
	rng := hash.New(7)
	a := make([]bool, 256)
	bb := make([]bool, 256)
	for i := range a {
		a[i] = rng.Uint64()&1 == 1
		bb[i] = a[i]
	}
	bb[137] = !bb[137]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := correlated.SolveGreaterThan(a, bb, 0.3, 0.05, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.FirstDiff != 137 {
			b.Fatalf("first diff %d, want 137", res.FirstDiff)
		}
	}
}

// BenchmarkGreaterThanSinglePass measures the doomed single-pass strawman
// for cost comparison (it is fast — and wrong half the time; see
// cmd/corrbench -table greater-than).
func BenchmarkGreaterThanSinglePass(b *testing.B) {
	rng := hash.New(7)
	a := make([]bool, 256)
	bb := make([]bool, 256)
	for i := range a {
		a[i] = rng.Uint64()&1 == 1
		bb[i] = a[i]
	}
	bb[137] = !bb[137]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		turnstile.SinglePassGT(a, bb, 8, uint64(i))
	}
}

// BenchmarkMultipassTurnstile measures MULTIPASS over a ±-weighted stream
// (Theorem 7), reporting passes and working space.
func BenchmarkMultipassTurnstile(b *testing.B) {
	rng := hash.New(11)
	tape := correlated.NewTape(nil)
	const ymax = 1<<14 - 1
	for i := 0; i < 20_000; i++ {
		y := rng.Uint64n(ymax + 1)
		x := rng.Uint64n(1000)
		tape.Append(correlated.Record{X: x, Y: y, W: 1})
		if i%3 == 0 {
			tape.Append(correlated.Record{X: x, Y: y, W: -1})
		}
	}
	var res *correlated.MultipassResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = correlated.RunMultipass(tape, correlated.MultipassConfig{
			Eps: 0.2, Delta: 0.05, YMax: ymax, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Passes), "passes")
	b.ReportMetric(float64(res.Space), "counters")
}

// BenchmarkAblationAlphaScale quantifies the bucket-capacity knob the
// design calls out: space and accuracy as α scales.
func BenchmarkAblationAlphaScale(b *testing.B) {
	for _, scale := range []float64{0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("alphaScale=%.1f", scale), func(b *testing.B) {
			var space int64
			var maxRel float64
			for i := 0; i < b.N; i++ {
				s, err := correlated.NewF2Summary(correlated.Options{
					Eps: 0.2, Delta: 0.1, YMax: benchYMax,
					MaxStreamLen: benchN, MaxX: benchXF2,
					AlphaScale: scale, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				base := exact.New()
				st := f2Stream("uniform", benchN)
				for {
					t, ok := st.Next()
					if !ok {
						break
					}
					if err := s.Add(t.X, t.Y); err != nil {
						b.Fatal(err)
					}
					base.Add(t.X, t.Y)
				}
				space = s.Space()
				maxRel = 0
				for d := 2; d <= 10; d += 2 {
					c := uint64(d) * benchYMax / 10
					got, err := s.QueryLE(c)
					if err != nil {
						b.Fatal(err)
					}
					want := base.F2(c)
					rel := (got - want) / want
					if rel < 0 {
						rel = -rel
					}
					if rel > maxRel {
						maxRel = rel
					}
				}
			}
			b.ReportMetric(float64(space), "counters")
			b.ReportMetric(maxRel*1000, "maxRelErr*1e3")
		})
	}
}

// BenchmarkAblationBatchedUpdates quantifies the Lemma 9 amortization:
// y-sorted batches hit the per-level leaf cache.
func BenchmarkAblationBatchedUpdates(b *testing.B) {
	tuples := gen.Collect(gen.Uniform(benchN, benchXF2, benchYMax+1, 3))
	b.Run("sequential-random-order", func(b *testing.B) {
		s, err := correlated.NewCountSummary(correlated.Options{
			Eps: 0.1, Delta: 0.1, YMax: benchYMax, MaxStreamLen: uint64(b.N) + 1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := tuples[i%len(tuples)]
			if err := s.Add(t.X, t.Y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched-sorted-order", func(b *testing.B) {
		s, err := correlated.NewCountSummary(correlated.Options{
			Eps: 0.1, Delta: 0.1, YMax: benchYMax, MaxStreamLen: uint64(b.N) + 1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		sorted := append([]gen.Tuple(nil), tuples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Y < sorted[j].Y })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := sorted[i%len(sorted)]
			if err := s.Add(t.X, t.Y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationF0Reps quantifies the repetition knob of the correlated
// F0 structure (median-of-reps drives δ down at linear space cost).
func BenchmarkAblationF0Reps(b *testing.B) {
	for _, reps := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("reps=%d", reps), func(b *testing.B) {
			var space int64
			for i := 0; i < b.N; i++ {
				s, err := correlated.NewF0Summary(correlated.Options{
					Eps: 0.1, Delta: deltaForReps(reps), YMax: benchYMax,
					MaxX: benchXF0, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				st := f0Stream("uniform", benchN)
				for {
					t, ok := st.Next()
					if !ok {
						break
					}
					if err := s.Add(t.X, t.Y); err != nil {
						b.Fatal(err)
					}
				}
				space = s.Space()
			}
			b.ReportMetric(float64(space), "tuples")
		})
	}
}

// deltaForReps picks a Delta whose derived repetition count is reps.
func deltaForReps(reps int) float64 {
	switch reps {
	case 1:
		return 0.5
	case 3:
		return 0.15
	default:
		return 0.04
	}
}

// BenchmarkMergeMarshaled measures the site→coordinator hot path: a
// coordinator folding a site's marshaled summary image straight into
// its own state (the work behind one corrd /v1/push). Each iteration
// resets the pooled coordinator and re-merges the same image, so the
// steady state exercises the recycled-sketch decode path; bytes/op is
// the image size, making the reported MB/s the sustainable push
// bandwidth per coordinator core.
func BenchmarkMergeMarshaled(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("site_n=%d", n), func(b *testing.B) {
			o := correlated.Options{
				Eps: 0.15, Delta: 0.1, YMax: benchYMax,
				MaxStreamLen: uint64(n), MaxX: benchXF2, Seed: 1,
			}
			site := buildF2(b, 0.15, "zipf1", n)
			img, err := site.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			coord, err := correlated.NewF2Summary(o)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coord.Reset()
				if err := coord.MergeMarshaled(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
