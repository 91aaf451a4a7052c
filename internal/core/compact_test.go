package core

import (
	"fmt"
	"testing"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/sketch"
)

// requireClosedCut fails unless every closed bucket of s that will split and
// holds an items-form sketch holds its pairs packed — in fewer bytes than the
// four a pair of exactly its slots: the identifiers and weights of these tests
// are small — and every sketch still open to insertions holds a hashed table,
// which has empty slots. It returns how many closed items-form buckets it saw.
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
		if got := cs.Bytes(); isClosed && got >= fit || !isClosed && got <= fit {
			t.Fatalf("%s, %s: closed=%v sketch of %d pairs holds %d bytes; its slots alone are %d", when, where, isClosed, pairs, got, fit)
		}
	}
	check("shared", s.sketch(s.shared), false)
	s.s0.buckets.each(func(_ uint64, h uint32) { check("singleton", s.sketch(h), false) })
	var walk func(h uint32, iv dyadic.Interval)
	walk = func(h uint32, iv dyadic.Interval) {
		if h == 0 {
			return
		}
		b := s.nodes.At(h)
		check(fmt.Sprint(iv), s.sketchOf(b), b.isClosed() && !iv.Single())
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

// closedOnBothSides counts the buckets a merge of sb into sa writes into
// though sa holds them closed: those stored, with items-form sketches, by
// both. The nodes at ah and bh span iv.
func closedOnBothSides(sa *Summary, ah uint32, sb *Summary, bh uint32, iv dyadic.Interval) int {
	if ah == 0 || bh == 0 {
		return 0
	}
	a, b := sa.nodes.At(ah), sb.nodes.At(bh)
	n := 0
	if !iv.Single() {
		lc, rc := iv.Children()
		n = closedOnBothSides(sa, a.left, sb, b.left, lc) + closedOnBothSides(sa, a.right, sb, b.right, rc)
	}
	as, aok := sa.sketchOf(a).(*sketch.CountSketch)
	bs, bok := sb.sketchOf(b).(*sketch.CountSketch)
	if a.isClosed() && !iv.Single() && aok && bok && !as.Dense() && !bs.Dense() && bs.Size() > 0 {
		n++
	}
	return n
}

// TestClosedBucketsAreCutToFit: a bucket that closes has its table packed into
// a run of the pairs it holds, wherever it becomes closed — in ingest, in a
// restore, in a merge of a live summary or of an image, including a merge that
// writes into a bucket already closed and packed — and no bucket still open
// has. None of it shows: at every stage the summary is, byte for byte, the one
// whose sketches cannot be packed at all.
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
		rewritten += closedOnBothSides(a, a.levels[i].root, b, b.levels[i].root, a.span)
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
