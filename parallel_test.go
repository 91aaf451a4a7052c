package correlated

import (
	"bytes"
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/hash"
)

// parallelTestOptions is corrd's benchmark configuration: both
// directions, so the LE‖GE split in dual.addBatchDirs has two sides.
func parallelTestOptions() Options {
	return Options{
		Eps: 0.15, Delta: 0.1, YMax: 1_000_000,
		MaxStreamLen: 1 << 24, MaxX: 500_001, Seed: 42,
		Predicate: Both,
	}
}

// batchesOf cuts n seeded zipf tuples into batches of the given sizes,
// cycling through them; every seventh tuple carries weight 0 (which
// AddBatch counts as 1).
func batchesOf(n int, seed uint64, sizes ...int) [][]Tuple {
	st := gen.Zipf(n, 100001, 1000001, 1.0, seed)
	var out [][]Tuple
	for k := 0; ; k++ {
		batch := make([]Tuple, 0, sizes[k%len(sizes)])
		for len(batch) < cap(batch) {
			tp, ok := st.Next()
			if !ok {
				if len(batch) > 0 {
					out = append(out, batch)
				}
				return out
			}
			w := int64(1)
			if (len(out)+len(batch))%7 == 0 {
				w = 0
			}
			batch = append(batch, Tuple{X: tp.X, Y: tp.Y, W: w})
		}
		out = append(out, batch)
	}
}

func cloneBatch(b []Tuple) []Tuple { return append([]Tuple(nil), b...) }

// requireSameState fails unless a and b marshal to the same bytes, hold
// the same Space and Count, and answer both directions with the same
// float bits.
func requireSameState(t *testing.T, a, b *F2Summary) {
	t.Helper()
	ia, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ia, ib) {
		t.Fatalf("images differ (%d vs %d bytes)", len(ia), len(ib))
	}
	if a.Space() != b.Space() || a.Count() != b.Count() {
		t.Fatalf("space %d count %d vs space %d count %d", a.Space(), a.Count(), b.Space(), b.Count())
	}
	for _, c := range []uint64{0, 2_000, 400_000, 600_000, 998_000, 1 << 20} {
		for _, q := range []struct {
			name string
			a, b func(uint64) (float64, error)
		}{{"le", a.QueryLE, b.QueryLE}, {"ge", a.QueryGE, b.QueryGE}} {
			va, erra := q.a(c)
			vb, errb := q.b(c)
			if (erra == nil) != (errb == nil) || math.Float64bits(va) != math.Float64bits(vb) {
				t.Fatalf("%s(%d): %v (%v) vs %v (%v)", q.name, c, va, erra, vb, errb)
			}
		}
	}
}

// TestAddBatchParallelGEBitIdentical: applying the GE direction on a
// second goroutine leaves exactly the state the sequential order leaves,
// at batch sizes below, at and above parallelBatchMin, zero weights
// included. Run under -race it is also the proof that the two directions
// share no memory.
func TestAddBatchParallelGEBitIdentical(t *testing.T) {
	seq, err := NewF2Summary(parallelTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewF2Summary(parallelTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	auto, err := NewF2Summary(parallelTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := 40_000
	if testing.Short() {
		n = 12_000
	}
	sizes := []int{16, parallelBatchMin - 1, parallelBatchMin, parallelBatchMin + 1, 4096}
	for i, batch := range batchesOf(n, 11, sizes...) {
		if err := seq.d.addBatchDirs(cloneBatch(batch), false); err != nil {
			t.Fatalf("batch %d sequential: %v", i, err)
		}
		if err := par.d.addBatchDirs(cloneBatch(batch), true); err != nil {
			t.Fatalf("batch %d parallel: %v", i, err)
		}
		if err := auto.AddBatch(cloneBatch(batch)); err != nil {
			t.Fatalf("batch %d AddBatch: %v", i, err)
		}
	}
	requireSameState(t, seq, par)
	requireSameState(t, seq, auto)
}

// TestAddBatchOfSortedCopyBitIdentical: under every Predicate the state a
// batch leaves is a function of what core.SortByY makes of it, so a batch
// sorted ahead of AddBatch — what corrd's committer logs and its replay
// applies — leaves the image the client-order original does. Fk is the
// aggregate whose image depends on the order inside an equal-y run; with
// GE alone the batch used to reach the mirrored sort in client order.
func TestAddBatchOfSortedCopyBitIdentical(t *testing.T) {
	for _, pred := range []Predicate{LE, GE, Both} {
		o := parallelTestOptions()
		o.Predicate = pred
		fromOriginal, err := NewFkSummary(3, o)
		if err != nil {
			t.Fatal(err)
		}
		fromSorted, err := NewFkSummary(3, o)
		if err != nil {
			t.Fatal(err)
		}
		rng := hash.New(29)
		for i := 0; i < 4; i++ {
			batch := make([]Tuple, 2_500)
			for j := range batch {
				batch[j] = Tuple{X: rng.Uint64n(1 << 12), Y: rng.Uint64n(6) * 1000, W: int64(1 + rng.Uint64n(5))}
			}
			sorted := cloneBatch(batch)
			core.SortByY(sorted)
			if err := fromOriginal.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := fromSorted.AddBatch(sorted); err != nil {
				t.Fatal(err)
			}
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
			t.Fatalf("predicate %d: the sorted copies and the originals leave different images", pred)
		}
	}
}

// TestAddBatchParallelRejectsWhole: an invalid tuple anywhere in a batch
// large enough to split rejects the batch with both directions untouched.
func TestAddBatchParallelRejectsWhole(t *testing.T) {
	o := parallelTestOptions()
	ref, err := NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	warm := batchesOf(3000, 5, 3000)[0]
	if err := ref.AddBatch(cloneBatch(warm)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(cloneBatch(warm)); err != nil {
		t.Fatal(err)
	}
	good := batchesOf(2000, 6, 2000)[0]
	for _, tc := range []struct {
		name string
		at   int
		bad  Tuple
	}{
		{"y beyond YMax, first half", 3, Tuple{X: 1, Y: s.d.ymax + 1, W: 1}},
		{"y beyond YMax, second half", len(good) - 2, Tuple{X: 1, Y: s.d.ymax + 1, W: 1}},
		{"negative weight, first half", 5, Tuple{X: 1, Y: 9, W: -1}},
		{"negative weight, second half", len(good) - 4, Tuple{X: 1, Y: 9, W: -1}},
	} {
		batch := cloneBatch(good)
		batch[tc.at] = tc.bad
		if err := s.AddBatch(batch); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		requireSameState(t, ref, s)
	}
}
