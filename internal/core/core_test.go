package core

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

func mustSummary(t *testing.T, agg Aggregate, cfg Config) *Summary {
	t.Helper()
	s, err := NewSummary(agg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Eps: 0, Delta: 0.1, YMax: 100},
		{Eps: 1.5, Delta: 0.1, YMax: 100},
		{Eps: 0.1, Delta: 0, YMax: 100},
		{Eps: 0.1, Delta: 1, YMax: 100},
		{Eps: 0.1, Delta: 0.1, YMax: 0},
	}
	for i, cfg := range bad {
		if _, err := NewSummary(CountAggregate(), cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestYMaxRounding(t *testing.T) {
	s := mustSummary(t, CountAggregate(), Config{Eps: 0.2, Delta: 0.1, YMax: 1000000, Seed: 1})
	if got := s.Config().YMax; got != 1<<20-1 {
		t.Fatalf("YMax rounded to %d, want %d", got, 1<<20-1)
	}
}

func TestAddRejectsBadInput(t *testing.T) {
	s := mustSummary(t, CountAggregate(), Config{Eps: 0.2, Delta: 0.1, YMax: 127, Seed: 1})
	if err := s.AddWeighted(1, 500, 1); err == nil {
		t.Error("y > YMax accepted")
	}
	if err := s.AddWeighted(1, 5, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := s.AddWeighted(1, 5, -2); err == nil {
		t.Error("negative weight accepted")
	}
}

// TestCountExactSmallStream: with fewer distinct y values than alpha the
// singleton level answers every query exactly for the exact-counter
// aggregates.
func TestCountExactSmallStream(t *testing.T) {
	s := mustSummary(t, CountAggregate(), Config{Eps: 0.2, Delta: 0.1, YMax: 1023, Seed: 2})
	exact := make([]int64, 1024)
	rng := hash.New(5)
	for i := 0; i < 2000; i++ {
		y := rng.Uint64n(60) // few distinct y values: below alpha
		if err := s.Add(rng.Uint64n(100), y); err != nil {
			t.Fatal(err)
		}
		exact[y]++
	}
	var prefix int64
	for c := uint64(0); c < 70; c++ {
		prefix += exact[c]
		got, lvl, err := s.QueryWithLevel(c)
		if err != nil {
			t.Fatalf("query %d: %v", c, err)
		}
		if lvl != 0 {
			t.Fatalf("query %d served from level %d, want singleton level", c, lvl)
		}
		if got != float64(prefix) {
			t.Fatalf("count(y<=%d) = %v, want %d", c, got, prefix)
		}
	}
}

func TestSumExactSmallStream(t *testing.T) {
	s := mustSummary(t, SumAggregate(), Config{Eps: 0.2, Delta: 0.1, YMax: 255, MaxX: 1000, Seed: 3})
	var want float64
	for i := uint64(1); i <= 50; i++ {
		if err := s.Add(i*3, i); err != nil {
			t.Fatal(err)
		}
		want += float64(i * 3)
	}
	got, err := s.Query(255)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestCountLargeStreamAccuracy exercises the full level structure: many
// distinct y values force singleton-level eviction, bucket closing,
// splitting, and discards; the exact-counter sketch isolates the
// structural error, which must stay within eps.
func TestCountLargeStreamAccuracy(t *testing.T) {
	const ymax = 1<<16 - 1
	const n = 300000
	s := mustSummary(t, CountAggregate(), Config{
		Eps: 0.1, Delta: 0.1, YMax: ymax, MaxStreamLen: n, Seed: 4,
	})
	rng := hash.New(7)
	ys := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		y := rng.Uint64n(ymax + 1)
		ys = append(ys, y)
		if err := s.Add(rng.Uint64n(1000), y); err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]int64, ymax+1)
	for _, y := range ys {
		counts[y]++
	}
	var prefix int64
	cum := make([]int64, ymax+1)
	for y := uint64(0); y <= ymax; y++ {
		prefix += counts[y]
		cum[y] = prefix
	}
	for _, c := range []uint64{100, 1 << 10, 1 << 12, 1 << 14, 40000, ymax} {
		got, err := s.Query(c)
		if err != nil {
			t.Fatalf("query %d: %v", c, err)
		}
		want := float64(cum[c])
		if rel := math.Abs(got-want) / want; rel > 0.1 {
			t.Errorf("count(y<=%d) = %v, want %v (rel err %v)", c, got, want, rel)
		}
	}
}

// TestF2Accuracy checks the headline guarantee on a realistic stream.
func TestF2Accuracy(t *testing.T) {
	const ymax = 1<<16 - 1
	const n = 200000
	const eps = 0.2
	s := mustSummary(t, F2Aggregate(), Config{
		Eps: eps, Delta: 0.15, YMax: ymax, MaxStreamLen: n, Seed: 8,
	})
	rng := hash.New(11)
	type tup struct{ x, y uint64 }
	tuples := make([]tup, n)
	for i := range tuples {
		tuples[i] = tup{rng.Uint64n(5000), rng.Uint64n(ymax + 1)}
		if err := s.Add(tuples[i].x, tuples[i].y); err != nil {
			t.Fatal(err)
		}
	}
	exactF2 := func(c uint64) float64 {
		freq := map[uint64]int64{}
		for _, tp := range tuples {
			if tp.y <= c {
				freq[tp.x]++
			}
		}
		var f2 float64
		for _, v := range freq {
			f2 += float64(v) * float64(v)
		}
		return f2
	}
	bad := 0
	cuts := []uint64{1 << 12, 1 << 13, 1 << 14, 1 << 15, 50000, ymax}
	for _, c := range cuts {
		got, err := s.Query(c)
		if err != nil {
			t.Fatalf("query %d: %v", c, err)
		}
		want := exactF2(c)
		if rel := math.Abs(got-want) / want; rel > eps {
			t.Logf("F2(y<=%d) = %v, want %v (rel err %v)", c, got, want, rel)
			bad++
		}
	}
	// The paper reports errors "almost always" within eps for delta<0.2;
	// allow one of the six cutoffs to exceed it.
	if bad > 1 {
		t.Fatalf("%d of %d cutoffs exceeded eps", bad, len(cuts))
	}
}

// TestWatermarksDecrease checks eviction bookkeeping under a tiny capacity.
func TestWatermarksDecrease(t *testing.T) {
	s := mustSummary(t, CountAggregate(), Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1, MaxStreamLen: 100000,
		Alpha: 16, Seed: 9,
	})
	rng := hash.New(13)
	for i := 0; i < 50000; i++ {
		if err := s.Add(1, rng.Uint64n(1<<12)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Watermark(0) == noWatermark {
		t.Error("singleton level never evicted despite tiny alpha")
	}
	if s.Watermark(1) == noWatermark {
		t.Error("level 1 never evicted despite tiny alpha")
	}
	// Counts must respect capacity.
	for i := 1; i <= s.Levels(); i++ {
		if s.levels[i].count[0] > s.Alpha() {
			t.Fatalf("level %d holds %d buckets, alpha %d", i, s.levels[i].count[0], s.Alpha())
		}
	}
	// Queries below the top watermark still succeed, and large-c queries
	// are served by a higher level.
	if _, lvl, err := s.QueryWithLevel(1<<12 - 1); err != nil || lvl == 0 {
		t.Fatalf("large-c query: lvl=%d err=%v", lvl, err)
	}
}

// TestQueryFailsWhenStructureExhausted forces the FAIL branch of
// Algorithm 3 by capping the level count far below what the stream needs.
func TestQueryFailsWhenStructureExhausted(t *testing.T) {
	s := mustSummary(t, CountAggregate(), Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<10 - 1,
		MaxStreamLen: 4, // lmax = log2(4)+1 = 3: thresholds top out at 16
		Alpha:        8,
		Seed:         10,
	})
	rng := hash.New(17)
	for i := 0; i < 20000; i++ {
		if err := s.Add(rng.Uint64(), rng.Uint64n(1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query(1<<10 - 1); err != ErrNoLevel {
		t.Fatalf("expected ErrNoLevel, got %v", err)
	}
	// Small cutoffs should still be answerable from low levels.
	if _, err := s.Query(0); err != nil {
		t.Fatalf("query(0) failed: %v", err)
	}
}

// TestCountMonotoneInCutoff: for the exact-counter aggregate the estimates
// should be (approximately) non-decreasing in c; gross violations indicate
// bucket bookkeeping bugs.
func TestCountMonotoneInCutoff(t *testing.T) {
	const ymax = 1<<14 - 1
	s := mustSummary(t, CountAggregate(), Config{
		Eps: 0.1, Delta: 0.1, YMax: ymax, MaxStreamLen: 100000, Seed: 11,
	})
	rng := hash.New(19)
	for i := 0; i < 100000; i++ {
		if err := s.Add(1, rng.Uint64n(ymax+1)); err != nil {
			t.Fatal(err)
		}
	}
	prev := -1.0
	for c := uint64(0); c <= ymax; c += 1 << 10 {
		got, err := s.Query(c)
		if err != nil {
			t.Fatalf("query %d: %v", c, err)
		}
		if got < prev*0.8 {
			t.Fatalf("estimate dropped from %v to %v at c=%d", prev, got, c)
		}
		prev = got
	}
}

func TestAddBatchMatchesSequentialForCount(t *testing.T) {
	cfg := Config{Eps: 0.1, Delta: 0.1, YMax: 1<<14 - 1, MaxStreamLen: 50000, Seed: 12}
	seq := mustSummary(t, CountAggregate(), cfg)
	bat := mustSummary(t, CountAggregate(), cfg)
	rng := hash.New(23)
	var batch []Tuple
	for i := 0; i < 50000; i++ {
		x, y := rng.Uint64n(100), rng.Uint64n(1<<14)
		if err := seq.Add(x, y); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, Tuple{X: x, Y: y, W: 1})
	}
	if err := bat.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint64{1 << 10, 1 << 12, 1<<14 - 1} {
		a, err1 := seq.Query(c)
		b, err2 := bat.Query(c)
		if err1 != nil || err2 != nil {
			t.Fatalf("queries failed: %v %v", err1, err2)
		}
		// Both are estimates of the same exact quantity; insertion
		// order may shift bucket boundaries, so allow eps slack.
		if b < a*0.8 || b > a*1.2 {
			t.Fatalf("batch estimate %v far from sequential %v at c=%d", b, a, c)
		}
	}
}

// TestSortByYLeavesSortedBatchAlone: a batch already non-decreasing in y
// comes back element for element, whatever sits inside its equal-y runs —
// so sorting is idempotent, and a batch sorted ahead of AddBatch (corrd's
// committer, a record decoded from its log) leaves the summary in the state
// the unsorted original does, byte for byte. Fk is the aggregate whose
// bytes depend on the order inside a run.
func TestSortByYLeavesSortedBatchAlone(t *testing.T) {
	rng := hash.New(31)
	for _, n := range []int{0, 1, 2, 11, 12, 13, 50, 300, 5000} { // pdqsort changes strategy at 12 and 50
		batch := make([]Tuple, n)
		for i := range batch {
			batch[i] = Tuple{X: rng.Uint64n(1 << 10), Y: rng.Uint64n(7) * 100, W: int64(1 + rng.Uint64n(5))}
		}
		original := slices.Clone(batch)
		SortByY(batch)
		if !slices.IsSortedFunc(batch, func(a, b Tuple) int { return cmp.Compare(a.Y, b.Y) }) {
			t.Fatalf("n = %d: not sorted by y", n)
		}
		sorted := slices.Clone(batch)
		SortByY(batch)
		if !slices.Equal(batch, sorted) {
			t.Fatalf("n = %d: sorting a sorted batch moved an element", n)
		}

		cfg := Config{Eps: 0.2, Delta: 0.1, YMax: 1<<10 - 1, MaxStreamLen: 1 << 16, Alpha: 64, Seed: 5}
		fromOriginal, fromSorted := mustSummary(t, FkAggregate(3), cfg), mustSummary(t, FkAggregate(3), cfg)
		if err := fromOriginal.AddBatch(original); err != nil {
			t.Fatal(err)
		}
		if err := fromSorted.AddBatch(sorted); err != nil {
			t.Fatal(err)
		}
		a, err := fromOriginal.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b, err := fromSorted.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("n = %d: AddBatch of the sorted copy and of the original leave different images", n)
		}
	}
}

func TestSpaceAndBucketsBounded(t *testing.T) {
	s := mustSummary(t, CountAggregate(), Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1, MaxStreamLen: 100000, Seed: 13,
	})
	rng := hash.New(29)
	for i := 0; i < 100000; i++ {
		if err := s.Add(rng.Uint64n(50), rng.Uint64n(1<<12)); err != nil {
			t.Fatal(err)
		}
	}
	maxBuckets := (s.Levels() + 1) * (s.Alpha() + 2)
	if got := s.Buckets(); got > maxBuckets {
		t.Fatalf("buckets = %d, exceeds bound %d", got, maxBuckets)
	}
	if s.Space() <= 0 {
		t.Fatal("space not positive")
	}
	if s.Count() != 100000 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1, MaxStreamLen: 20000, Seed: 99}
	run := func() float64 {
		s := mustSummary(t, F2Aggregate(), cfg)
		rng := hash.New(31)
		for i := 0; i < 20000; i++ {
			if err := s.Add(rng.Uint64n(500), rng.Uint64n(1<<12)); err != nil {
				t.Fatal(err)
			}
		}
		v, err := s.Query(1 << 11)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced %v then %v", a, b)
	}
}

func TestStrictTheoryAlphaLarger(t *testing.T) {
	base := Config{Eps: 0.2, Delta: 0.1, YMax: 1<<10 - 1, MaxStreamLen: 1000, Seed: 1}
	practical := mustSummary(t, CountAggregate(), base)
	strictCfg := base
	strictCfg.StrictTheory = true
	strict := mustSummary(t, CountAggregate(), strictCfg)
	if strict.Alpha() <= practical.Alpha() {
		t.Fatalf("strict alpha %d not larger than practical %d", strict.Alpha(), practical.Alpha())
	}
}

func TestAggregateConstants(t *testing.T) {
	f2 := F2Aggregate()
	if f2.C1(4) != 16 {
		t.Errorf("F2 c1(4) = %v, want 16", f2.C1(4))
	}
	if got := f2.C2(0.18); math.Abs(got-0.0001) > 1e-12 {
		t.Errorf("F2 c2(0.18) = %v, want 1e-4", got)
	}
	f3 := FkAggregate(3)
	if f3.C1(2) != 8 {
		t.Errorf("F3 c1(2) = %v, want 8", f3.C1(2))
	}
	cnt := CountAggregate()
	if cnt.C1(7) != 7 || cnt.C2(0.3) != 0.3 {
		t.Error("COUNT constants wrong")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := []struct {
		in   uint64
		want int
	}{{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := log2Ceil(c.in); got != c.want {
			t.Errorf("log2Ceil(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
