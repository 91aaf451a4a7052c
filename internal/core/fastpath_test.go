package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/sketch"
)

// sketchBytes marshals sk for state comparison; sketches that cannot
// marshal fail the test (every aggregate under test here can).
func sketchBytes(t *testing.T, sk sketch.Sketch) []byte {
	t.Helper()
	if sk == nil {
		return nil
	}
	bs, ok := sk.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		t.Fatalf("sketch %T does not marshal", sk)
	}
	b, err := bs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireBucketsEqual compares two bucket trees node by node, including
// closed flags and exact sketch bytes.
func requireBucketsEqual(t *testing.T, path string, a, b *bucket) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: presence mismatch (%v vs %v)", path, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if a.iv != b.iv || a.closed != b.closed {
		t.Fatalf("%s: node mismatch: iv %v/%v closed %v/%v", path, a.iv, b.iv, a.closed, b.closed)
	}
	if !bytes.Equal(sketchBytes(t, a.sk), sketchBytes(t, b.sk)) {
		t.Fatalf("%s: sketch state differs", path)
	}
	requireBucketsEqual(t, path+"L", a.left, b.left)
	requireBucketsEqual(t, path+"R", a.right, b.right)
}

// requireSummariesEqual compares every observable piece of two summaries'
// state: counters, watermarks, the singleton level (as a keyed set — the
// heap layout is not state), each bucket tree, and the shared sketch.
func requireSummariesEqual(t *testing.T, a, b *Summary) {
	t.Helper()
	if a.n != b.n || a.virginFrom != b.virginFrom || a.lmax != b.lmax || a.alpha != b.alpha {
		t.Fatalf("scalar state differs: n %d/%d virginFrom %d/%d", a.n, b.n, a.virginFrom, b.virginFrom)
	}
	if !bytes.Equal(sketchBytes(t, a.shared), sketchBytes(t, b.shared)) {
		t.Fatal("shared sketch state differs")
	}
	if a.s0.y != b.s0.y || len(a.s0.buckets) != len(b.s0.buckets) {
		t.Fatalf("singleton level differs: y %d/%d size %d/%d", a.s0.y, b.s0.y, len(a.s0.buckets), len(b.s0.buckets))
	}
	for y, ab := range a.s0.buckets {
		bb, ok := b.s0.buckets[y]
		if !ok {
			t.Fatalf("singleton y=%d missing on one side", y)
		}
		if !bytes.Equal(sketchBytes(t, ab.sk), sketchBytes(t, bb.sk)) {
			t.Fatalf("singleton y=%d sketch differs", y)
		}
	}
	for i := 1; i <= a.lmax; i++ {
		la, lb := a.levels[i], b.levels[i]
		if la.y != lb.y || la.count != lb.count {
			t.Fatalf("level %d: y %d/%d count %d/%d", i, la.y, lb.y, la.count, lb.count)
		}
		requireBucketsEqual(t, fmt.Sprintf("level%d:", i), la.root, lb.root)
	}
}

// TestSlotFastPathMatchesPlainAdd runs identical streams through the
// hash-once slot fan-out and the plain per-sketch Add path and requires
// bit-identical summary state, across aggregates and seeds.
func TestSlotFastPathMatchesPlainAdd(t *testing.T) {
	aggs := map[string]Aggregate{
		"F2":    F2Aggregate(),
		"COUNT": CountAggregate(),
		"SUM":   SumAggregate(),
	}
	for name, agg := range aggs {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				cfg := Config{
					Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1,
					MaxStreamLen: 60000, MaxX: 5000, Seed: seed,
				}
				slow := cfg
				slow.NoSlotFastPath = true
				fastS := mustSummary(t, agg, cfg)
				slowS := mustSummary(t, agg, slow)
				if fastS.slotMaker == nil {
					t.Fatalf("%s maker does not support the slot fast path", name)
				}
				if slowS.slotMaker != nil {
					t.Fatal("NoSlotFastPath did not disable the fast path")
				}
				rng := hash.New(seed ^ 0xabcdef)
				for i := 0; i < 60000; i++ {
					x, y := rng.Uint64n(5000), rng.Uint64n(1<<16)
					w := int64(rng.Uint64n(3)) + 1
					if err := fastS.AddWeighted(x, y, w); err != nil {
						t.Fatal(err)
					}
					if err := slowS.AddWeighted(x, y, w); err != nil {
						t.Fatal(err)
					}
				}
				requireSummariesEqual(t, fastS, slowS)
			})
		}
	}
}

// TestAddBatchFastPathMatchesPlain runs identical batches through the
// slot-based and plain grouped batch paths; the grouped semantics must not
// depend on whether slots are in use.
func TestAddBatchFastPathMatchesPlain(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		cfg := Config{
			Eps: 0.2, Delta: 0.1, YMax: 1<<14 - 1,
			MaxStreamLen: 40000, MaxX: 2000, Seed: seed,
		}
		slow := cfg
		slow.NoSlotFastPath = true
		fastS := mustSummary(t, F2Aggregate(), cfg)
		slowS := mustSummary(t, F2Aggregate(), slow)
		rng := hash.New(seed * 31)
		for bi := 0; bi < 40; bi++ {
			batch := make([]Tuple, 1000)
			for i := range batch {
				batch[i] = Tuple{X: rng.Uint64n(2000), Y: rng.Uint64n(1 << 14), W: 1}
			}
			cp := append([]Tuple(nil), batch...)
			if err := fastS.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := slowS.AddBatch(cp); err != nil {
				t.Fatal(err)
			}
		}
		requireSummariesEqual(t, fastS, slowS)
	}
}

// TestMarshalRoundTripAfterRecycling exercises the sketch pool hard —
// singleton evictions, bucket discards, and query compositions all churn
// recycled sketches — then requires an exact marshal round trip and
// identical behaviour afterwards.
func TestMarshalRoundTripAfterRecycling(t *testing.T) {
	cfg := Config{
		Eps: 0.25, Delta: 0.1, YMax: 1<<12 - 1,
		MaxStreamLen: 80000, MaxX: 500, Seed: 99,
	}
	s := mustSummary(t, F2Aggregate(), cfg)
	rng := hash.New(123)
	for i := 0; i < 80000; i++ {
		if err := s.Add(rng.Uint64n(500), rng.Uint64n(1<<12)); err != nil {
			t.Fatal(err)
		}
		if i%997 == 0 {
			// Interleaved queries compose and recycle sketches mid-stream.
			if _, err := s.Query(uint64(i) % (1 << 12)); err != nil && err != ErrNoLevel {
				t.Fatal(err)
			}
		}
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := mustSummary(t, F2Aggregate(), cfg)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	requireSummariesEqual(t, s, restored)
	// The restored summary must keep answering and ingesting like the
	// original (the restored side re-derives budgets and slot faces).
	for i := 0; i < 5000; i++ {
		x, y := rng.Uint64n(500), rng.Uint64n(1<<12)
		if err := s.Add(x, y); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	for c := uint64(0); c <= cfg.YMax; c += 512 {
		a, err1 := s.Query(c)
		b, err2 := restored.Query(c)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: error mismatch %v vs %v", c, err1, err2)
		}
		if err1 == nil && math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
			t.Fatalf("query %d: %v vs %v after round trip", c, a, b)
		}
	}
}

// TestBudgetedClosingMatchesEveryInsertCheck disables the budget skip by
// brute force — re-deriving closings from a summary forced to check every
// insert is covered by the fast/slow equivalence above (both paths share
// budget logic); here we additionally check budgets never close a bucket
// below its threshold.
func TestBudgetedClosingMatchesEveryInsertCheck(t *testing.T) {
	cfg := Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1,
		MaxStreamLen: 30000, MaxX: 1000, Seed: 5,
	}
	s := mustSummary(t, F2Aggregate(), cfg)
	rng := hash.New(77)
	for i := 0; i < 30000; i++ {
		if err := s.Add(rng.Uint64n(1000), rng.Uint64n(1<<12)); err != nil {
			t.Fatal(err)
		}
	}
	var walk func(lv *level, b *bucket)
	walk = func(lv *level, b *bucket) {
		if b == nil {
			return
		}
		if b.closed && b.sk != nil && b.left == nil && b.right == nil && !b.iv.Single() {
			if est := sketch.CheapEstimate(b.sk); est < lv.thresh {
				t.Fatalf("level %d bucket %v closed below threshold: %v < %v",
					lv.idx, b.iv, est, lv.thresh)
			}
		}
		walk(lv, b.left)
		walk(lv, b.right)
	}
	for i := 1; i <= s.lmax; i++ {
		walk(s.levels[i], s.levels[i].root)
	}
}

// unbudgeted hides everything but the Sketch methods of the sketch it
// wraps: no ThresholdBudget, so the summary re-checks the closing threshold
// after every insert, and no slots.
type unbudgeted struct{ sketch.Sketch }

func (u unbudgeted) Merge(o sketch.Sketch) error { return u.Sketch.Merge(o.(unbudgeted).Sketch) }
func (u unbudgeted) MarshalBinary() ([]byte, error) {
	return u.Sketch.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
}

type unbudgetedMaker struct{ sketch.Maker }

func (m unbudgetedMaker) New() sketch.Sketch { return unbudgeted{m.Maker.New()} }

// TestBudgetsNeverMoveAClosing feeds one stream to a summary whose sketches
// offer closing budgets and to one that checks the threshold after every
// insert, tuple by tuple and in equal-y groups large enough to promote a
// bucket's sketch in mid-group. A budget taken while a sketch kept its items
// must not outlive its promotion — the dense estimator can read above the
// exact F2 the budget was computed from — so the two must agree on every
// bucket, closed flag and counter.
func TestBudgetsNeverMoveAClosing(t *testing.T) {
	agg := F2Aggregate()
	checked := agg
	checked.NewMaker = func(upsilon, gamma float64, rng *hash.RNG) sketch.Maker {
		return unbudgetedMaker{agg.NewMaker(upsilon, gamma, rng)}
	}
	for _, grouped := range []bool{false, true} {
		cfg := Config{Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1, MaxStreamLen: 60_000, MaxX: 1 << 20, Seed: 5}
		a, b := mustSummary(t, agg, cfg), mustSummary(t, checked, cfg)
		rng := hash.New(77)
		for i := 0; i < 60; i++ {
			batch := make([]Tuple, 1000)
			for j := range batch {
				// Few distinct y per batch: groups of ~125 tuples, mostly
				// new x, so buckets cross the promotion point inside one.
				batch[j] = Tuple{X: rng.Uint64n(1 << 20), Y: rng.Uint64n(8) * 97 * uint64(i%5+1), W: int64(1 + rng.Uint64n(3))}
			}
			for _, s := range []*Summary{a, b} {
				if grouped {
					if err := s.AddBatch(append([]Tuple(nil), batch...)); err != nil {
						t.Fatal(err)
					}
					continue
				}
				for _, tp := range batch {
					if err := s.AddWeighted(tp.X, tp.Y, tp.W); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		requireSummariesEqual(t, a, b)
		dense := 0
		for _, o := range a.Occupancy() {
			dense += o.Dense
		}
		if dense == 0 {
			t.Fatal("no sketch promoted; the test lost its point")
		}
	}
}
