package correlated

import (
	"bytes"
	"cmp"
	"math"
	"runtime"
	"testing"

	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/hash"
)

// TestMirrorIsSharedAcrossSummaries: the GE direction reads the LE
// direction's sorted batch with each y mirrored, so no summary keeps a copy of
// a batch: eight summaries that each took one large batch must not each keep
// a buffer its size. COUNT summaries over sixteen y values keep their own
// state to a few kilobytes, which leaves batch-sized scratch as the only thing
// that could grow the heap.
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

// tieHeavyBatches returns rounds × five batches of 16, 63, 64, 65 and 4 096
// tuples — below, at and past parallelBatchMin, and large — each over at most
// eight y values of its own, so equal-y runs are long, with weights 1 to 6.
func tieHeavyBatches(rounds int, seed, ymax uint64) [][]Tuple {
	rng := hash.New(seed)
	var out [][]Tuple
	for r := 0; r < rounds; r++ {
		for _, n := range []int{16, 63, 64, 65, 4096} {
			var ys [8]uint64
			for i := range ys {
				ys[i] = rng.Uint64n(ymax + 1)
			}
			distinct := 1 + rng.Uint64n(8)
			batch := make([]Tuple, n)
			for i := range batch {
				batch[i] = Tuple{X: rng.Uint64n(5000), Y: ys[rng.Uint64n(distinct)], W: int64(1 + rng.Uint64n(6))}
			}
			out = append(out, batch)
		}
	}
	return out
}

// addBatchMirroredCopy is the GE direction as it was fed before it read the
// LE batch: a mirrored copy of the sorted batch, sorted again with
// core.SortByY (a reversed run order, so the sort reorders the copy), then
// AddSorted.
func addBatchMirroredCopy(d *dual, batch []Tuple) error {
	if err := cmp.Or(d.le, d.ge).SortBatch(batch); err != nil {
		return err
	}
	if d.ge != nil {
		mir := make([]Tuple, len(batch))
		for i, t := range batch {
			mir[i] = Tuple{X: t.X, Y: d.ymax - t.Y, W: t.W}
		}
		core.SortByY(mir)
		d.ge.AddSorted(mir)
	}
	if d.le != nil {
		d.le.AddSorted(batch)
	}
	return nil
}

// addBatchRunsInLogOrder feeds the GE direction a mirrored copy built run by
// run, the last equal-y run of the sorted batch first and each run in the
// batch's order: already sorted, so AddSorted takes it as it is.
func addBatchRunsInLogOrder(d *dual, batch []Tuple) error {
	if err := cmp.Or(d.le, d.ge).SortBatch(batch); err != nil {
		return err
	}
	if d.ge != nil {
		mir := make([]Tuple, 0, len(batch))
		for end := len(batch); end > 0; {
			start := end - 1
			for start > 0 && batch[start-1].Y == batch[end-1].Y {
				start--
			}
			for _, t := range batch[start:end] {
				mir = append(mir, Tuple{X: t.X, Y: d.ymax - t.Y, W: t.W})
			}
			end = start
		}
		d.ge.AddSorted(mir)
	}
	if d.le != nil {
		d.le.AddSorted(batch)
	}
	return nil
}

// TestGEReadsTheLEBatch: the GE direction applies the sorted LE batch with
// each y mirrored, the equal-y runs from last to first, and leaves the image
// a reference fed a mirrored copy leaves. For F2, COUNT and SUM that is the
// copy re-sorted with core.SortByY, as the GE direction once took it: their
// closing checks run once a run, so the order inside a run moves no byte. For
// Fk it is the copy with each run in the batch's order, the order corrd's log
// holds. Tie-heavy batches, under GE alone and Both, the image compared after
// every batch.
func TestGEReadsTheLEBatch(t *testing.T) {
	rounds := 12
	if testing.Short() || raceEnabled {
		rounds = 4
	}
	o := Options{Eps: 0.2, Delta: 0.1, YMax: 1<<20 - 1, MaxStreamLen: 1 << 24, MaxX: 5000, Seed: 9, Alpha: 16}
	for _, tc := range []struct {
		name   string
		make   func(Options) (*summary, error)
		ref    func(*dual, []Tuple) error
		rounds int // Fk's sketches are slow to feed: a quarter of the others'
	}{
		{"f2", func(o Options) (*summary, error) {
			d, err := newDual(core.F2Aggregate(), o)
			return &summary{d}, err
		}, addBatchMirroredCopy, rounds},
		{"count", func(o Options) (*summary, error) {
			d, err := newDual(core.CountAggregate(), o)
			return &summary{d}, err
		}, addBatchMirroredCopy, rounds},
		{"sum", func(o Options) (*summary, error) {
			d, err := newDual(core.SumAggregate(), o)
			return &summary{d}, err
		}, addBatchMirroredCopy, rounds},
		{"fk", func(o Options) (*summary, error) {
			d, err := newDual(core.FkAggregate(3), o)
			return &summary{d}, err
		}, addBatchRunsInLogOrder, rounds / 4},
	} {
		for _, pred := range []Predicate{GE, Both} {
			o := o
			o.Predicate = pred
			got, err := tc.make(o)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tc.make(o)
			if err != nil {
				t.Fatal(err)
			}
			for i, batch := range tieHeavyBatches(tc.rounds, 41, o.YMax) {
				if err := got.AddBatch(cloneBatch(batch)); err != nil {
					t.Fatal(err)
				}
				if err := tc.ref(ref.d, cloneBatch(batch)); err != nil {
					t.Fatal(err)
				}
				a, err := got.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s, predicate %d: after batch %d (%d tuples) the image is %d bytes, the reference's %d, and they differ",
						tc.name, pred, i, len(batch), len(a), len(b))
				}
			}
			if got.d.ge.Watermark(1) == math.MaxUint64 {
				t.Fatalf("%s, predicate %d: the GE direction evicted nothing at level 1; the batches should fill it", tc.name, pred)
			}
		}
	}
}

// BenchmarkAddBatchBoth feeds an F2 summary configured as corrd configures a
// tenant's — both directions, so LE and GE each apply every batch —
// 32 768-tuple batches sorted by y, as corrd's committer hands them over,
// after one pass over them has filled its levels. Beside ns/tuple it reports
// B/tuple: the bytes the heap allocated a tuple, which is what the apply path
// throws away plus what the summary's growth keeps.
func BenchmarkAddBatchBoth(b *testing.B) {
	const batchLen, nBatches = 1 << 15, 16
	o := parallelTestOptions()
	s, err := NewF2Summary(o)
	if err != nil {
		b.Fatal(err)
	}
	st := gen.Uniform(batchLen*nBatches, o.MaxX, o.YMax+1, 7)
	batches := make([][]Tuple, nBatches)
	for i := range batches {
		batches[i] = make([]Tuple, batchLen)
		for j := range batches[i] {
			tu, _ := st.Next()
			batches[i][j] = Tuple{X: tu.X, Y: tu.Y, W: 1}
		}
		core.SortByY(batches[i])
		if err := s.AddBatch(batches[i]); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AddBatch(batches[i%nBatches]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	tuples := float64(b.N) * batchLen
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/tuples, "B/tuple")
}
