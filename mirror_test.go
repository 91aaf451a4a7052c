package correlated

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/hash"
)

// TestMirrorIsSharedAcrossSummaries: both directions read the one sorted
// batch, so no summary keeps a copy of a batch, mirrored or not: eight
// summaries that each took one large batch must not each keep a buffer its
// size. COUNT summaries over sixteen y values keep their own
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
// tuples, each over at most eight y values of its own, so equal-y runs are
// long, with weights 1 to 6.
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

// side is what TestBothAnswersAsEachSide asks of a summary: take a batch,
// answer a cutoff in each direction — printed, which tells every float bit
// apart — and report its Space and, for a moment summary, its Occupancy.
type side struct {
	add       func([]Tuple) error
	le, ge    func(uint64) (string, error)
	space     func() int64
	occupancy func() []LevelOccupancy
}

func printed[T any](q func(uint64) (T, error)) func(uint64) (string, error) {
	return func(c uint64) (string, error) {
		a, err := q(c)
		return fmt.Sprint(a), err
	}
}

func momentSide(agg core.Aggregate) func(Options) (side, error) {
	return func(o Options) (side, error) {
		s, err := newSummary(agg, o)
		return side{s.AddBatch, printed(s.QueryLE), printed(s.QueryGE), s.Space, s.Occupancy}, err
	}
}

// hitterSide feeds a heavy-hitters summary each tuple of a batch once, in
// the batch's order: it takes no weights and no batches.
func hitterSide(k int) func(Options) (side, error) {
	return func(o Options) (side, error) {
		s, err := NewFkHeavyHittersSummary(k, o)
		if err != nil {
			return side{}, err
		}
		at := func(q func(uint64, float64) ([]HeavyHitter, error)) func(uint64) (string, error) {
			return printed(func(c uint64) ([]HeavyHitter, error) { return q(c, 0.001) })
		}
		add := func(batch []Tuple) error {
			for _, tu := range batch {
				if err := s.Add(tu.X, tu.Y); err != nil {
					return err
				}
			}
			return nil
		}
		return side{add, at(s.QueryLE), at(s.QueryGE), s.Space, nil}, nil
	}
}

// TestBothAnswersAsEachSide: a Both summary answers QueryLE as an LE-only
// summary and QueryGE as a GE-only one with the same Options, bit for bit,
// after every batch of tie-heavy batches, for every aggregate and for the
// F2 and Fk(3) heavy hitters: its one tree a level is each direction's
// tree, with the buckets both keep stored once. Fk is the aggregate whose
// state depends on the order inside an equal-y run.
func TestBothAnswersAsEachSide(t *testing.T) {
	rounds := 12
	if testing.Short() || raceEnabled {
		rounds = 4
	}
	o := Options{Eps: 0.2, Delta: 0.1, YMax: 1<<20 - 1, MaxStreamLen: 1 << 24, MaxX: 5000, Seed: 9, Alpha: 16}
	for _, tc := range []struct {
		name   string
		build  func(Options) (side, error)
		rounds int // Fk's sketches are slow to feed: a quarter of the others'
	}{
		{"f2", momentSide(core.F2Aggregate()), rounds},
		{"count", momentSide(core.CountAggregate()), rounds},
		{"sum", momentSide(core.SumAggregate()), rounds},
		{"fk", momentSide(core.FkAggregate(3)), rounds / 4},
		{"f2 heavy hitters", hitterSide(2), rounds},
		{"fk heavy hitters", hitterSide(3), rounds / 4},
	} {
		var sides [3]side
		for i, pred := range []Predicate{Both, LE, GE} {
			o := o
			o.Predicate = pred
			var err error
			if sides[i], err = tc.build(o); err != nil {
				t.Fatal(err)
			}
		}
		both, le, ge := sides[0], sides[1], sides[2]
		for i, batch := range tieHeavyBatches(tc.rounds, 41, o.YMax) {
			for _, s := range sides {
				if err := s.add(cloneBatch(batch)); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []uint64{0, 1 << 10, 1 << 18, 1 << 19, 3 << 18, o.YMax} {
				for _, q := range []struct {
					name      string
					got, want func(uint64) (string, error)
				}{{"LE", both.le, le.le}, {"GE", both.ge, ge.ge}} {
					g, gerr := q.got(c)
					w, werr := q.want(c)
					if (gerr == nil) != (werr == nil) || g != w {
						t.Fatalf("%s, after batch %d (%d tuples): Both %s(%d) = %v (%v), one-sided %v (%v)",
							tc.name, i, len(batch), q.name, c, g, gerr, w, werr)
					}
				}
			}
		}
		if both.space() >= le.space()+ge.space() {
			t.Fatalf("%s: Both holds %d counters, LE and GE apart %d and %d", tc.name, both.space(), le.space(), ge.space())
		}
		if both.occupancy == nil {
			continue
		}
		rows := both.occupancy()
		if rows[1].Watermark == math.MaxUint64 || rows[1].WatermarkGE == math.MaxUint64 {
			t.Fatalf("%s: level 1 evicted nothing in some direction (%+v); the batches should fill it", tc.name, rows[1])
		}
	}
}

// BenchmarkAddBatchBoth feeds an F2 summary configured as corrd configures a
// tenant's — both directions, one tree a level for the two —
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
