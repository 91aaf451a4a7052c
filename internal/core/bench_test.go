package core

import (
	"sort"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// Focused hot-path microbenchmarks with allocation reporting. The figure
// and table reproductions at the repository root measure end-to-end
// behaviour; these isolate the core ingest and query paths so per-op ns
// and allocs/op regressions show up directly.

const (
	benchYMax = 1<<20 - 1
	benchXDom = 100_000
)

func benchTuples(n int, seed uint64) []Tuple {
	rng := hash.New(seed)
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{X: rng.Uint64n(benchXDom), Y: rng.Uint64n(benchYMax + 1), W: 1}
	}
	return ts
}

func benchSummary(b *testing.B, agg Aggregate, n uint64) *Summary {
	b.Helper()
	s, err := NewSummary(agg, Config{
		Eps: 0.2, Delta: 0.1, YMax: benchYMax,
		MaxStreamLen: n, MaxX: benchXDom, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkCoreAdd measures the tuple-at-a-time ingest path in steady
// state: the summary is pre-warmed over the whole tuple cycle so the
// measured window sees the hash-once fan-out with pooled sketches — in
// steady state it runs allocation-free.
func BenchmarkCoreAdd(b *testing.B) {
	for name, agg := range map[string]Aggregate{"F2": F2Aggregate(), "COUNT": CountAggregate()} {
		b.Run(name, func(b *testing.B) {
			tuples := benchTuples(200_000, 7)
			s := benchSummary(b, agg, uint64(b.N)+uint64(len(tuples))+1)
			for _, t := range tuples { // warm to steady state
				if err := s.Add(t.X, t.Y); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := tuples[i%len(tuples)]
				if err := s.Add(t.X, t.Y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreAddBatch measures the grouped batch path over y-sorted
// batches; ns/op is per tuple, not per batch.
func BenchmarkCoreAddBatch(b *testing.B) {
	const batchSize = 4096
	tuples := benchTuples(200_000, 9)
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Y < tuples[j].Y })
	s := benchSummary(b, F2Aggregate(), uint64(b.N)+uint64(len(tuples))+1)
	if err := s.AddBatch(append([]Tuple(nil), tuples...)); err != nil { // warm
		b.Fatal(err)
	}
	batch := make([]Tuple, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		m := batchSize
		if rem := b.N - done; rem < m {
			m = rem
		}
		for i := 0; i < m; i++ {
			batch[i] = tuples[(done+i)%len(tuples)]
		}
		if err := s.AddBatch(batch[:m]); err != nil {
			b.Fatal(err)
		}
		done += m
	}
}

// BenchmarkCoreQuery measures cutoff queries against a built summary; a
// composed sketch's struct is the one the maker kept from the last query, and
// its table or array is drawn from and recycled back to the maker's arena, so
// a steady-state query allocates nothing (TestQueryAllocatesNothing). "levels" spreads its
// cutoffs over the domain, which the bucket-tree levels serve; "S0" asks
// just below the singleton level's watermark, so Algorithm 3 merges every
// stored singleton — α small sketches — into one.
func BenchmarkCoreQuery(b *testing.B) {
	tuples := benchTuples(200_000, 11)
	s := benchSummary(b, F2Aggregate(), uint64(len(tuples))+1)
	for _, t := range tuples {
		if err := s.Add(t.X, t.Y); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("levels", func(b *testing.B) {
		cutoffs := [8]uint64{}
		for i := range cutoffs {
			cutoffs[i] = uint64(i+1) * benchYMax / 8
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(cutoffs[i%len(cutoffs)]); err != nil && err != ErrNoLevel {
				b.Fatal(err)
			}
		}
	})
	b.Run("S0", func(b *testing.B) {
		c := s.Watermark(0) - 1
		if _, lvl, err := s.QueryWithLevel(c); err != nil || lvl != 0 {
			b.Fatalf("cutoff %d served by level %d, err %v", c, lvl, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.s0.buckets.n), "singletons")
	})
}
