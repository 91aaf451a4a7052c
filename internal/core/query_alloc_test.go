package core

import (
	"testing"

	"github.com/streamagg/correlated/internal/gen"
)

// querySummary is an F2 summary of a uniform stream, built as BenchmarkCoreQuery's
// is, with cutoffs the levels serve and one the singleton level serves.
func querySummary(t *testing.T) (s *Summary, levels []uint64, s0 uint64) {
	t.Helper()
	s = mustSummary(t, F2Aggregate(), Config{
		Eps: 0.2, Delta: 0.1, YMax: benchYMax, MaxStreamLen: 10_001, MaxX: benchXDom, Seed: 1,
	})
	feedStream(t, s, gen.Uniform(10_000, benchXDom, benchYMax+1, 11))
	for i := 1; i <= 8; i++ {
		levels = append(levels, uint64(i)*benchYMax/8)
	}
	s0 = s.Watermark(0) - 1
	if _, lvl, err := s.QueryWithLevel(s0); err != nil || lvl != 0 {
		t.Fatalf("cutoff %d served by level %d, err %v", s0, lvl, err)
	}
	return s, levels, s0
}

// TestQueryAllocatesNothing: a query composes its answer's sketch and
// recycles it, and the maker keeps the struct it recycled for the next one,
// whose table or array and row sums come from the arena: once a first query
// has run, QueryWithLevel allocates nothing, whether the levels or the
// singleton level serve it.
func TestQueryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s, levels, s0 := querySummary(t)
	i := 0
	level := func() {
		i++
		if _, _, err := s.QueryWithLevel(levels[i%len(levels)]); err != nil && err != ErrNoLevel {
			t.Fatal(err)
		}
	}
	single := func() {
		if _, _, err := s.QueryWithLevel(s0); err != nil {
			t.Fatal(err)
		}
	}
	for name, query := range map[string]func(){"levels": level, "S0": single} {
		query()
		if allocs := testing.AllocsPerRun(200, query); allocs != 0 {
			t.Errorf("%s: a query allocates %.1f times; want none", name, allocs)
		}
	}
}

// TestQueriesLeaveTheArenaAsTheyFoundIt: 10 000 queries take their answers'
// tables and arrays from the summary's arena and give every one back: what
// the sketches hold and what the arena maps are where the first query left
// them.
func TestQueriesLeaveTheArenaAsTheyFoundIt(t *testing.T) {
	s, levels, s0 := querySummary(t)
	before := s.Footprint()
	for i := 0; i < 10_000; i++ {
		c := levels[i%len(levels)]
		if i%5 == 0 {
			c = s0
		}
		if _, _, err := s.QueryWithLevel(c); err != nil && err != ErrNoLevel {
			t.Fatal(err)
		}
	}
	if after := s.Footprint(); after != before || after.Arena == 0 {
		t.Fatalf("10 000 queries moved the footprint from %+v to %+v", before, after)
	}
}
