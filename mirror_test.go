package correlated

import (
	"runtime"
	"testing"
)

// TestMirrorIsSharedAcrossSummaries: the GE direction's mirrored copy of a
// batch is scratch for one AddBatch, not state, so eight summaries that each
// took one large batch must not each keep a buffer its size. COUNT summaries
// over sixteen y values keep their own state to a few kilobytes, which leaves
// the mirrors as the only thing that could grow the heap.
func TestMirrorIsSharedAcrossSummaries(t *testing.T) {
	const (
		summaries = 8
		tuples    = 100_000
		mirror    = tuples * 24 // bytes
	)
	o := Options{Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1, Seed: 3, Predicate: Both}
	sums := make([]*CountSummary, summaries)
	for i := range sums {
		var err error
		if sums[i], err = NewCountSummary(o); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]Tuple, tuples)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i, s := range sums {
		for j := range batch {
			batch[j] = Tuple{X: uint64(j), Y: uint64((i + j) % 16), W: 1}
		}
		if err := s.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if grown := int64(after) - int64(before); grown >= 2*mirror {
		t.Fatalf("heap grew by %d bytes over %d summaries fed one %d-tuple batch each: %.1f mirrors of %d bytes, want under 2",
			grown, summaries, tuples, float64(grown)/mirror, mirror)
	}
	for _, s := range sums {
		if got, err := s.QueryGE(0); err != nil || got < tuples*0.8 || got > tuples*1.2 {
			t.Fatalf("QueryGE(0) = %v, %v; want about %d", got, err, tuples)
		}
	}
}
