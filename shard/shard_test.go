package shard

import (
	"errors"
	"math"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/hash"
)

// randomBatch draws n tuples with x < xdom and y < ydom.
func randomBatch(rng *hash.RNG, n int, xdom, ydom uint64) []correlated.Tuple {
	b := make([]correlated.Tuple, n)
	for i := range b {
		b[i] = correlated.Tuple{X: rng.Uint64n(xdom), Y: rng.Uint64n(ydom)}
	}
	return b
}

// addAll feeds batch to eng and fails the test on error.
func addAll(t *testing.T, eng *Sharded, batch []correlated.Tuple) {
	t.Helper()
	if err := eng.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
}

// cachedLE refreshes the cached merge and answers every cutoff from it.
func cachedLE(t *testing.T, eng *Sharded, cutoffs []uint64) []float64 {
	t.Helper()
	if err := eng.RefreshCached(); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(cutoffs))
	if err := eng.CachedQueryLEBatch(cutoffs, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// restoreMerged restores eng's MarshalMerged image into a fresh summary.
func restoreMerged(t *testing.T, eng *Sharded, o correlated.Options) *correlated.F2Summary {
	t.Helper()
	img, err := eng.MarshalMerged()
	if err != nil {
		t.Fatal(err)
	}
	s, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedMatchesSingleSummary: while queries are served by the
// singleton level (at most alpha distinct y values), the sharded engine's
// answers are bit-identical to a single summary ingesting the same
// stream — partitioning plus linear merging is exact in that regime —
// both from the cached merge and from the merged image restored into a
// fresh summary.
func TestShardedMatchesSingleSummary(t *testing.T) {
	o := correlated.Options{
		Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 16, Alpha: 256, Seed: 5,
	}
	single, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewF2(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := hash.New(42)
	const distinctY = 200 // < alpha: every query served by the singleton level
	for i := 0; i < 20; i++ {
		b := randomBatch(rng, 1000, 1<<12, distinctY)
		if err := single.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		addAll(t, eng, b)
	}
	cutoffs := []uint64{0, 25, 100, distinctY, 1 << 15}
	cached := cachedLE(t, eng, cutoffs)
	restored := restoreMerged(t, eng, o)
	if restored.Count() != single.Count() {
		t.Fatalf("count: merged image %d single %d", restored.Count(), single.Count())
	}
	for i, c := range cutoffs {
		want, err1 := single.QueryLE(c)
		got, err2 := restored.QueryLE(c)
		if err1 != nil || err2 != nil {
			t.Fatalf("c=%d: %v / %v", c, err1, err2)
		}
		if cached[i] != want || got != want {
			t.Fatalf("c=%d: cached %v image %v single %v (bit-identical expected)", c, cached[i], got, want)
		}
	}
}

// TestShardedAccuracyGeneralRegime: with a stream large enough to close
// buckets and evict on every shard, the merged answer stays within the
// structure's (slackened by the shard count) error bound of the exact
// answer.
func TestShardedAccuracyGeneralRegime(t *testing.T) {
	o := correlated.Options{
		Eps: 0.2, Delta: 0.1, YMax: 1<<20 - 1,
		MaxStreamLen: 1 << 22, MaxX: 1 << 14, Seed: 9,
	}
	eng, err := NewF2(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := hash.New(77)
	var all []correlated.Tuple
	for i := 0; i < 150; i++ {
		b := randomBatch(rng, 1000, 1<<14, 1<<20)
		all = append(all, b...)
		addAll(t, eng, b)
	}
	cutoffs := []uint64{1 << 17, 1 << 18, 1 << 19, 1<<20 - 1}
	got := cachedLE(t, eng, cutoffs)
	for i, c := range cutoffs {
		freq := map[uint64]float64{}
		for _, tu := range all {
			if tu.Y <= c {
				freq[tu.X]++
			}
		}
		var want float64
		for _, f := range freq {
			want += f * f
		}
		if rel := math.Abs(got[i]-want) / want; rel > 0.35 {
			t.Fatalf("c=%d: sharded %v vs exact %v (rel %.3f)", c, got[i], want, rel)
		}
	}
}

// TestShardedValidation: synchronous rejection of invalid tuples and the
// closed-engine contract.
func TestShardedValidation(t *testing.T) {
	o := correlated.Options{Eps: 0.2, Delta: 0.1, YMax: 1 << 10, Seed: 1}
	if _, err := NewF2(o, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	eng, err := NewF2(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	// YMax rounds up to 2^11-1; beyond that must fail immediately.
	if err := eng.AddBatch([]correlated.Tuple{{X: 1, Y: 1<<11 - 1}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddBatch([]correlated.Tuple{{X: 1, Y: 1 << 11}}); err == nil {
		t.Fatal("y beyond YMax accepted")
	}
	if err := eng.AddBatch([]correlated.Tuple{{X: 1, Y: 1, W: -1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddBatch([]correlated.Tuple{{X: 1, Y: 5}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddBatch after Close: %v", err)
	}
	if err := eng.RefreshCached(); !errors.Is(err, ErrClosed) {
		t.Fatalf("RefreshCached after Close: %v", err)
	}
	if _, err := eng.MarshalMerged(); !errors.Is(err, ErrClosed) {
		t.Fatalf("MarshalMerged after Close: %v", err)
	}
	if err := eng.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v", err)
	}
}

// TestShardedAddBatchAtomicRejection: a batch containing an invalid
// tuple is rejected before any of it is ingested, matching the unsharded
// AddBatch contract (correct and retry is safe).
func TestShardedAddBatchAtomicRejection(t *testing.T) {
	o := correlated.Options{Eps: 0.2, Delta: 0.1, YMax: 1 << 10, Seed: 1}
	eng, err := NewF2(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batch := []correlated.Tuple{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 1 << 14}}
	if err := eng.AddBatch(batch); err == nil {
		t.Fatal("batch with out-of-range y accepted")
	}
	if n := restoreMerged(t, eng, o).Count(); n != 0 {
		t.Fatalf("rejected batch partially ingested: count=%d", n)
	}
	batch[2].Y = 3 // corrected batch retries cleanly
	if err := eng.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if n := restoreMerged(t, eng, o).Count(); n != 3 {
		t.Fatalf("count after retry: %d", n)
	}
}

// TestShardedAsyncErrorSurfaces: a tuple that bypasses engine validation
// fails inside the worker and surfaces at the next barrier, and stays
// the engine's error from then on.
func TestShardedAsyncErrorSurfaces(t *testing.T) {
	o := correlated.Options{Eps: 0.2, Delta: 0.1, YMax: 1 << 10, Seed: 1}
	eng, err := NewF2(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// y far beyond YMax, placed where only the worker will see it.
	wk := eng.workers[1]
	wk.pending = append(wk.pending, correlated.Tuple{X: 1, Y: 1 << 30, W: 1})
	if err := eng.Flush(); err == nil {
		t.Fatal("worker error did not surface at Flush")
	}
	if err := eng.RefreshCached(); err == nil {
		t.Fatal("worker error not sticky")
	}
}

// TestShardedRace is the race-detector workout: a driver goroutine
// interleaving ingest, flushes, refreshes and cached queries with all P
// workers running.
func TestShardedRace(t *testing.T) {
	o := correlated.Options{
		Eps: 0.25, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 12, Seed: 3,
	}
	eng, err := NewF2(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rng := hash.New(123)
		out := make([]float64, 1)
		for i := 0; i < 120; i++ {
			if err := eng.AddBatch(randomBatch(rng, 500, 1<<12, 1<<16)); err != nil {
				done <- err
				return
			}
			if i%20 == 19 {
				if err := eng.RefreshCached(); err != nil {
					done <- err
					return
				}
				if err := eng.CachedQueryLEBatch([]uint64{rng.Uint64n(1 << 16)}, out); err != nil {
					done <- err
					return
				}
			}
		}
		done <- eng.Close()
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShardedHandoffBufferRecycling: the driver/worker handoff reuses a
// fixed set of batch buffers — every buffer that comes back through a
// worker's free channel is one of the originals, so steady-state ingest
// allocates no new handoff storage no matter how many batches flow.
func TestShardedHandoffBufferRecycling(t *testing.T) {
	o := correlated.Options{
		Eps: 0.25, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 12, Seed: 9,
	}
	eng, err := NewF2(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Record the identity (backing-array address) of every buffer in
	// circulation: the pending buffer plus everything parked in free.
	baseline := map[*correlated.Tuple]bool{}
	record := func(m map[*correlated.Tuple]bool) {
		for _, wk := range eng.workers {
			m[&wk.pending[:1][0]] = true
			for i := 0; i < len(wk.free); i++ {
				b := <-wk.free
				m[&b[:1][0]] = true
				wk.free <- b
			}
		}
	}
	record(baseline)
	want := len(eng.workers) * (spareBuffers + 1)
	if len(baseline) != want {
		t.Fatalf("expected %d distinct buffers in circulation, found %d", want, len(baseline))
	}
	rng := hash.New(77)
	for round := 0; round < 10; round++ {
		addAll(t, eng, randomBatch(rng, batchSize*len(eng.workers)*4, 1<<12, 1<<16))
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	after := map[*correlated.Tuple]bool{}
	record(after)
	for p := range after {
		if !baseline[p] {
			t.Fatalf("a handoff buffer was reallocated instead of recycled (%d of %d foreign)", len(after)-len(baseline), len(after))
		}
	}
}

// TestShardedCachedQuery: RefreshCached captures the merged state and
// CachedQueryLEBatch serves it — bit-identical to a single summary fed
// the same stream, in the singleton regime — without touching later
// ingest until the next refresh.
func TestShardedCachedQuery(t *testing.T) {
	o := correlated.Options{
		Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 16, Alpha: 256, Seed: 5,
		Predicate: correlated.Both,
	}
	eng, err := NewF2(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	single, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.New(41)
	feed := func(n int) {
		b := randomBatch(rng, n, 1<<16, 200)
		addAll(t, eng, b)
		if err := single.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	cutoffs := []uint64{0, 10, 100, 199, 1 << 15}
	singleLE := func() []float64 {
		out := make([]float64, len(cutoffs))
		for i, c := range cutoffs {
			v, err := single.QueryLE(c)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}
	feed(10_000)
	want := singleLE()
	cached := cachedLE(t, eng, cutoffs)
	for i := range cutoffs {
		if cached[i] != want[i] {
			t.Fatalf("c=%d: cached %v single %v", cutoffs[i], cached[i], want[i])
		}
	}
	// More ingest does not bleed into the cache until the next refresh.
	feed(5_000)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	stale := make([]float64, len(cutoffs))
	if err := eng.CachedQueryLEBatch(cutoffs, stale); err != nil {
		t.Fatal(err)
	}
	for i := range cutoffs {
		if stale[i] != want[i] {
			t.Fatalf("c=%d: cache moved without a refresh (%v vs %v)", cutoffs[i], stale[i], want[i])
		}
	}
	want = singleLE()
	fresh := cachedLE(t, eng, cutoffs)
	for i := range cutoffs {
		if fresh[i] != want[i] {
			t.Fatalf("c=%d: refreshed cache %v single %v", cutoffs[i], fresh[i], want[i])
		}
	}
}

// TestShardedCachedQueryConcurrentIngest: CachedQueryLEBatch may run
// while the driver ingests (the epoch cache of a serving layer does
// exactly that); run under -race this pins the no-shared-state contract
// between the cached read path and the ingest path.
func TestShardedCachedQueryConcurrentIngest(t *testing.T) {
	o := correlated.Options{
		Eps: 0.25, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 12, Seed: 3,
	}
	eng, err := NewF2(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.New(55)
	addAll(t, eng, randomBatch(rng, 5_000, 1<<12, 1<<16))
	if err := eng.RefreshCached(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		out := make([]float64, 1)
		for i := 0; i < 2_000; i++ {
			if err := eng.CachedQueryLEBatch([]uint64{uint64(i % (1 << 16))}, out); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 40; i++ {
		addAll(t, eng, randomBatch(rng, 1_000, 1<<12, 1<<16))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalMergedPushPath: an engine's merged image folds into a plain
// summary exactly like the engine's own merge — the paper's
// site→coordinator path over the engine API.
func TestMarshalMergedPushPath(t *testing.T) {
	o := correlated.Options{
		Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 14, Seed: 11,
	}
	site, err := NewF2(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	addAll(t, site, randomBatch(hash.New(31), 8_000, 1<<14, 1<<16))
	img, err := site.MarshalMerged()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.MergeMarshaled(img); err != nil {
		t.Fatal(err)
	}
	if coord.Count() != 8_000 {
		t.Fatalf("coordinator count %d, want 8000", coord.Count())
	}
	cutoffs := []uint64{1 << 12, 1 << 15}
	want := cachedLE(t, site, cutoffs)
	for i, c := range cutoffs {
		got, err := coord.QueryLE(c)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if got != want[i] {
			t.Fatalf("c=%d: coordinator %v site %v", c, got, want[i])
		}
	}
}
