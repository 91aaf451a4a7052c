package core

import (
	"runtime"
	"testing"

	"github.com/streamagg/correlated/internal/gen"
)

// TestIngestAllocatesLittleBeyondWhatItKeeps bounds what the apply path throws
// away: one summary configured as corrd configures a tenant's, 400 000
// uniform then 400 000 zipf tuples in 256-tuple batches, may allocate at most
// allocBudget times the bytes it ends up holding. A bucket's sketch is born at
// eight slots and doubled up to the promotion point, and each of those steps
// used to leave its table to the collector — 6.1 times the bytes kept on this
// stream; handed back to the maker's free lists they read 2.0. corrd's
// resident set follows that ratio, not the bytes kept. One goroutine, seeded
// streams: the allocations repeat, the collector's own do not count.
func TestIngestAllocatesLittleBeyondWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const allocBudget = 2.5
	var tuples []Tuple
	for _, stream := range []gen.Stream{
		gen.Uniform(400_000, 100_001, 1_000_001, 7),
		gen.Zipf(400_000, 100_001, 1_000_001, 1, 7),
	} {
		for tu, ok := stream.Next(); ok; tu, ok = stream.Next() {
			tuples = append(tuples, Tuple{X: tu.X, Y: tu.Y, W: 1})
		}
	}
	heap := func() (allocated, live uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc, ms.HeapAlloc
	}
	allocBefore, liveBefore := heap()
	s := mustSummary(t, F2Aggregate(), Config{
		Eps: 0.15, Delta: 0.1, YMax: 1_000_000, MaxStreamLen: 1 << 24, MaxX: 500_001, Seed: 42,
	})
	for rest := tuples; len(rest) > 0; {
		n := min(256, len(rest))
		if err := s.AddBatch(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	allocAfter, liveAfter := heap()
	allocated, kept := allocAfter-allocBefore, liveAfter-liveBefore
	t.Logf("allocated %d bytes to keep %d: %.2f times", allocated, kept, float64(allocated)/float64(kept))
	if float64(allocated) > allocBudget*float64(kept) {
		t.Fatalf("ingest allocated %d bytes to keep %d, %.2f times; the budget is %.1f",
			allocated, kept, float64(allocated)/float64(kept), allocBudget)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(tuples) // live at both readings
}
