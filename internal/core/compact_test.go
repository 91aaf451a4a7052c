package core

import (
	"fmt"
	"testing"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/sketch"
)

// requireClosedCut fails unless every closed bucket of s that will split and
// holds an items-form sketch holds exactly its pairs — four bytes each, two a
// word: the identifiers and weights of these tests are small — and every
// sketch still open to insertions holds a hashed table, which has empty slots. It returns
// how many closed items-form buckets it saw.
func requireClosedCut(t *testing.T, when string, s *Summary) int {
	t.Helper()
	closed, open := 0, 0
	check := func(where string, sk sketch.Sketch, isClosed bool) {
		cs, ok := sk.(*sketch.CountSketch)
		if !ok || cs.Dense() || cs.Size() == 0 {
			return
		}
		pairs := cs.Size() / 2 // Size counts two words a pair
		fit := 8 * ((pairs + 1) / 2)
		if isClosed {
			closed++
		} else {
			open++
		}
		if got := cs.Bytes(); isClosed && got != fit || !isClosed && got <= fit {
			t.Fatalf("%s, %s: closed=%v sketch of %d pairs holds %d bytes; cut to fit is %d", when, where, isClosed, pairs, got, fit)
		}
	}
	check("shared", s.shared, false)
	for _, sk := range s.s0.buckets {
		check("singleton", sk, false)
	}
	var walk func(b *bucket, iv dyadic.Interval)
	walk = func(b *bucket, iv dyadic.Interval) {
		if b == nil {
			return
		}
		check(fmt.Sprint(iv), b.sk, b.closed && !iv.Single())
		if !iv.Single() {
			lc, rc := iv.Children()
			walk(b.left, lc)
			walk(b.right, rc)
		}
	}
	for i := 1; i <= s.lmax; i++ {
		walk(s.levels[i].root, s.span)
	}
	if closed == 0 || open == 0 {
		t.Fatalf("%s: %d closed and %d open items-form sketches; the test lost its point", when, closed, open)
	}
	return closed
}

// closedOnBothSides counts the buckets a merge of b into a writes into though
// a holds them closed: those stored, with items-form sketches, by both. The
// two span iv.
func closedOnBothSides(a, b *bucket, iv dyadic.Interval) int {
	if a == nil || b == nil {
		return 0
	}
	n := 0
	if !iv.Single() {
		lc, rc := iv.Children()
		n = closedOnBothSides(a.left, b.left, lc) + closedOnBothSides(a.right, b.right, rc)
	}
	as, aok := a.sk.(*sketch.CountSketch)
	bs, bok := b.sk.(*sketch.CountSketch)
	if a.closed && !iv.Single() && aok && bok && !as.Dense() && !bs.Dense() && bs.Size() > 0 {
		n++
	}
	return n
}

// TestClosedBucketsAreCutToFit: a bucket that closes has its table cut to the
// pairs it holds, wherever it becomes closed — in ingest, in a restore, in a
// merge of a live summary or of an image, including a merge that writes into
// a bucket already closed and cut — and no bucket still open has. None of it
// shows: at every stage the summary is, byte for byte, the one whose sketches
// cannot be cut at all.
func TestClosedBucketsAreCutToFit(t *testing.T) {
	agg := F2Aggregate()
	uncut := agg // its sketches show nothing but the Sketch methods: no Compact
	uncut.NewMaker = func(upsilon, gamma float64, rng *hash.RNG) sketch.Maker {
		return unbudgetedMaker{agg.NewMaker(upsilon, gamma, rng)}
	}
	cfg := Config{Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1, MaxStreamLen: 1 << 20, MaxX: 1 << 16, Seed: 3}
	a, b := mustSummary(t, agg, cfg), mustSummary(t, agg, cfg)
	ua, ub := mustSummary(t, uncut, cfg), mustSummary(t, uncut, cfg)
	rng := hash.New(555)
	for i := 0; i < 160; i++ {
		batch := make([]Tuple, 256)
		for j := range batch {
			batch[j] = Tuple{X: rng.Uint64n(1 << 14), Y: rng.Uint64n(1 << 16), W: 1}
		}
		for _, s := range [][]*Summary{{a, ua}, {b, ub}}[i%2] {
			if err := s.AddBatch(append([]Tuple(nil), batch...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireClosedCut(t, "after a batched stream", a)
	requireClosedCut(t, "after a batched stream", b)
	requireSummariesEqual(t, a, ua)

	img, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := mustSummary(t, agg, cfg)
	if err := restored.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if live, got := requireClosedCut(t, "live", a), requireClosedCut(t, "after UnmarshalBinary", restored); got != live {
		t.Fatalf("restored summary holds %d closed items-form buckets, the live one %d", got, live)
	}
	requireSummariesEqual(t, restored, ua)

	rewritten := 0
	for i := 1; i <= a.lmax; i++ {
		rewritten += closedOnBothSides(a.levels[i].root, b.levels[i].root, a.span)
	}
	if rewritten == 0 {
		t.Fatal("no bucket is closed in the receiver and stored by the operand; the test lost its point")
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := ua.Merge(ub); err != nil {
		t.Fatal(err)
	}
	requireClosedCut(t, "after Merge", a)
	requireSummariesEqual(t, a, ua)

	wire, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.MergeMarshaled(wire); err != nil {
		t.Fatal(err)
	}
	requireClosedCut(t, "after MergeMarshaled", restored)
	requireSummariesEqual(t, restored, ua)
}
