package core

import (
	"errors"
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/hash"
)

func mergeAggs() map[string]Aggregate {
	return map[string]Aggregate{
		"COUNT": CountAggregate(),
		"SUM":   SumAggregate(),
		"F2":    F2Aggregate(),
		"F3":    FkAggregate(3),
	}
}

// TestMergeEqualsWholeStreamSingletonRegime: while every query is served
// by the singleton level (at most alpha distinct y values, so no
// singleton eviction ever happens), merging a random split of the stream
// is bit-identical to single-summary ingestion: the composed query sketch
// is the same linear function of the same selected substream.
func TestMergeEqualsWholeStreamSingletonRegime(t *testing.T) {
	for name, agg := range mergeAggs() {
		agg := agg
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := Config{
					Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1,
					MaxStreamLen: 1 << 20, MaxX: 1 << 20,
					Alpha: 256, Seed: seed,
				}
				whole, err := NewSummary(agg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := hash.New(seed ^ 0xabcd)
				parts := 2 + int(rng.Uint64n(7)) // 2..8
				sums := make([]*Summary, parts)
				for i := range sums {
					if sums[i], err = NewSummary(agg, cfg); err != nil {
						t.Fatal(err)
					}
				}
				const distinctY = 200 // < alpha: singleton level never evicts
				for i := 0; i < 6000; i++ {
					x := rng.Uint64n(5000)
					y := rng.Uint64n(distinctY)
					w := int64(1 + rng.Uint64n(3))
					if err := whole.AddWeighted(x, y, w); err != nil {
						t.Fatal(err)
					}
					if err := sums[rng.Uint64n(uint64(parts))].AddWeighted(x, y, w); err != nil {
						t.Fatal(err)
					}
				}
				merged := sums[0]
				for _, p := range sums[1:] {
					if err := merged.Merge(p); err != nil {
						t.Fatalf("merge: %v", err)
					}
				}
				if merged.Count() != whole.Count() {
					t.Fatalf("count: merged %d whole %d", merged.Count(), whole.Count())
				}
				for _, c := range []uint64{0, 10, 50, distinctY / 2, distinctY, 1 << 15} {
					want, wlv, err1 := whole.QueryWithLevel(c)
					got, glv, err2 := merged.QueryWithLevel(c)
					if err1 != nil || err2 != nil {
						t.Fatalf("query c=%d: %v / %v", c, err1, err2)
					}
					if wlv != 0 || glv != 0 {
						t.Fatalf("c=%d: expected singleton level, got levels %d/%d", c, wlv, glv)
					}
					if name == "F3" {
						// Fk estimates sum floats in map order; allow
						// last-bit drift.
						if relDiff(got, want) > 1e-9 {
							t.Fatalf("c=%d: merged %v whole %v", c, got, want)
						}
					} else if got != want {
						t.Fatalf("c=%d: merged %v whole %v (bit-identical expected)", c, got, want)
					}
				}
			}
		})
	}
}

// TestMergeGeneralRegimeAccuracy: with streams large enough to close
// buckets, materialize every level, and evict past the space bound on
// both sides, a k-way merged summary still answers within the structure's
// error guarantee (with the k-fold straddling-mass slack documented on
// Merge) against a brute-force reference.
func TestMergeGeneralRegimeAccuracy(t *testing.T) {
	type tupleW struct {
		x, y uint64
		w    int64
	}
	for _, name := range []string{"COUNT", "F2"} {
		agg := mergeAggs()[name]
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Eps: 0.2, Delta: 0.1, YMax: 1<<20 - 1,
				MaxStreamLen: 1 << 22, MaxX: 1 << 16, Seed: 7,
			}
			rng := hash.New(99)
			const parts = 4
			sums := make([]*Summary, parts)
			var err error
			for i := range sums {
				if sums[i], err = NewSummary(agg, cfg); err != nil {
					t.Fatal(err)
				}
			}
			var stream []tupleW
			for i := 0; i < 120_000; i++ {
				tw := tupleW{x: rng.Uint64n(1 << 14), y: rng.Uint64n(1 << 20), w: 1}
				stream = append(stream, tw)
				if err := sums[i%parts].Add(tw.x, tw.y); err != nil {
					t.Fatal(err)
				}
			}
			merged := sums[0]
			for _, p := range sums[1:] {
				if err := merged.Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			checkInvariants(t, merged)
			for _, c := range []uint64{1 << 16, 1 << 18, 1 << 19, 1<<20 - 1} {
				got, err := merged.Query(c)
				if err != nil {
					t.Fatalf("c=%d: %v", c, err)
				}
				var want float64
				switch name {
				case "COUNT":
					for _, tw := range stream {
						if tw.y <= c {
							want += float64(tw.w)
						}
					}
				case "F2":
					freq := map[uint64]float64{}
					for _, tw := range stream {
						if tw.y <= c {
							freq[tw.x] += float64(tw.w)
						}
					}
					for _, f := range freq {
						want += f * f
					}
				}
				// eps = 0.2 target, times the documented k-site slack and
				// sketch noise headroom.
				if rel := relDiff(got, want); rel > 0.35 {
					t.Fatalf("c=%d: merged estimate %v vs exact %v (rel %.3f)", c, got, want, rel)
				}
			}
		})
	}
}

// TestMergeMarshaledMatchesMerge: merging from wire bytes must agree with
// merging the live summary.
func TestMergeMarshaledMatchesMerge(t *testing.T) {
	agg := F2Aggregate()
	cfg := Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<18 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 16, Seed: 3,
	}
	mk := func() *Summary {
		s, err := NewSummary(agg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a1, a2, b := mk(), mk(), mk()
	rng := hash.New(555)
	for i := 0; i < 40_000; i++ {
		x, y := rng.Uint64n(1<<14), rng.Uint64n(1<<18)
		if i%2 == 0 {
			if err := a1.Add(x, y); err != nil {
				t.Fatal(err)
			}
			if err := a2.Add(x, y); err != nil {
				t.Fatal(err)
			}
		} else if err := b.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	if err := a1.Merge(b); err != nil {
		t.Fatal(err)
	}
	wire, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.MergeMarshaled(wire); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, a1)
	checkInvariants(t, a2)
	if a1.Count() != a2.Count() {
		t.Fatalf("count: %d vs %d", a1.Count(), a2.Count())
	}
	for c := uint64(0); c < 1<<18; c += 1 << 13 {
		v1, l1, e1 := a1.QueryWithLevel(c)
		v2, l2, e2 := a2.QueryWithLevel(c)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("c=%d: error mismatch %v vs %v", c, e1, e2)
		}
		if e1 != nil {
			continue
		}
		if l1 != l2 || v1 != v2 {
			t.Fatalf("c=%d: live merge (lvl %d, %v) vs wire merge (lvl %d, %v)", c, l1, v1, l2, v2)
		}
	}
	// The other summary must remain usable after being merged from.
	if _, err := b.Query(1 << 17); err != nil {
		t.Fatalf("source summary poisoned by merge: %v", err)
	}
}

// TestMergeIncompatible: every config field mismatch is reported as a
// typed *compat.Error naming the field and matching ErrIncompatible.
func TestMergeIncompatible(t *testing.T) {
	base := Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1,
		MaxStreamLen: 1 << 16, MaxX: 1 << 12, Seed: 1,
	}
	cases := []struct {
		field  string
		mutate func(*Config)
		agg    Aggregate
	}{
		{"eps", func(c *Config) { c.Eps = 0.3 }, F2Aggregate()},
		{"delta", func(c *Config) { c.Delta = 0.2 }, F2Aggregate()},
		{"ymax", func(c *Config) { c.YMax = 1<<14 - 1 }, F2Aggregate()},
		{"seed", func(c *Config) { c.Seed = 2 }, F2Aggregate()},
		{"alpha", func(c *Config) { c.Alpha = 1000 }, F2Aggregate()},
		{"aggregate", nil, CountAggregate()},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			a, err := NewSummary(F2Aggregate(), base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			b, err := NewSummary(tc.agg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = a.Merge(b)
			if err == nil {
				t.Fatal("merge of incompatible summaries succeeded")
			}
			if !errors.Is(err, compat.ErrIncompatible) {
				t.Fatalf("error %v does not match compat.ErrIncompatible", err)
			}
			var ce *compat.Error
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *compat.Error", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
	// Self-merge and nil must be rejected too (not incompatibility).
	a, _ := NewSummary(F2Aggregate(), base)
	if err := a.Merge(a); err == nil {
		t.Fatal("self-merge succeeded")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("nil merge succeeded")
	}
}

// TestMergeMarshaledWireMismatch: the wire image carries the source
// configuration, so merging (or restoring) bytes from a differently
// configured summary fails with a typed field error even though the
// derived geometry may coincide.
func TestMergeMarshaledWireMismatch(t *testing.T) {
	base := Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1,
		MaxStreamLen: 1 << 16, MaxX: 1 << 12, Seed: 1,
	}
	otherSeed := base
	otherSeed.Seed = 2 // same alpha and lmax — only the hashes differ
	src, err := NewSummary(F2Aggregate(), otherSeed)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.New(5)
	for i := 0; i < 2000; i++ {
		if err := src.Add(rng.Uint64n(1<<10), rng.Uint64n(1<<12)); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewSummary(F2Aggregate(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		do   func([]byte) error
	}{
		{"MergeMarshaled", dst.MergeMarshaled},
		{"UnmarshalBinary", dst.UnmarshalBinary},
	} {
		err := op.do(wire)
		if err == nil {
			t.Fatalf("%s accepted wire image with mismatched seed", op.name)
		}
		var ce *compat.Error
		if !errors.As(err, &ce) || ce.Field != "seed" {
			t.Fatalf("%s error = %v, want *compat.Error{Field: seed}", op.name, err)
		}
	}
	if dst.Count() != 0 {
		t.Fatalf("receiver mutated by rejected wire image: n=%d", dst.Count())
	}
}

// TestResetReingest: Reset must return the summary to a state
// indistinguishable from freshly constructed — re-ingesting the same
// stream yields bit-identical answers.
func TestResetReingest(t *testing.T) {
	cfg := Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 14, Seed: 11,
	}
	fresh, err := NewSummary(F2Aggregate(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewSummary(F2Aggregate(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the reused summary with an unrelated stream, then reset.
	rng := hash.New(1)
	for i := 0; i < 30_000; i++ {
		if err := reused.Add(rng.Uint64(), rng.Uint64n(1<<16)); err != nil {
			t.Fatal(err)
		}
	}
	reused.Reset()
	if reused.Count() != 0 || reused.Buckets() != fresh.Buckets() {
		t.Fatalf("after Reset: count=%d buckets=%d (fresh has %d)",
			reused.Count(), reused.Buckets(), fresh.Buckets())
	}
	rng2 := hash.New(2)
	for i := 0; i < 30_000; i++ {
		x, y := rng2.Uint64n(1<<12), rng2.Uint64n(1<<16)
		if err := fresh.Add(x, y); err != nil {
			t.Fatal(err)
		}
		if err := reused.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	for c := uint64(0); c < 1<<16; c += 1 << 12 {
		want, wl, e1 := fresh.QueryWithLevel(c)
		got, gl, e2 := reused.QueryWithLevel(c)
		if (e1 == nil) != (e2 == nil) || wl != gl || (e1 == nil && got != want) {
			t.Fatalf("c=%d: fresh (lvl %d, %v, %v) vs reset (lvl %d, %v, %v)",
				c, wl, want, e1, gl, got, e2)
		}
	}
}

// checkInvariants validates the structural invariants of a summary after
// a merge: capacities respected, stored counts exact, internal nodes
// closed, watermark mirror in sync.
func checkInvariants(t *testing.T, s *Summary) {
	t.Helper()
	if len(s.s0.buckets) > s.alpha {
		t.Fatalf("singleton level over capacity: %d > %d", len(s.s0.buckets), s.alpha)
	}
	for y := range s.s0.buckets {
		if y >= s.s0.y {
			t.Fatalf("singleton y=%d at or past watermark %d", y, s.s0.y)
		}
	}
	for i := 1; i <= s.lmax; i++ {
		lv := s.levels[i]
		if lv.count > s.alpha {
			t.Fatalf("level %d over capacity: %d > %d", i, lv.count, s.alpha)
		}
		if got := countNodes(lv.root); got != lv.count {
			t.Fatalf("level %d count %d but tree has %d nodes", i, lv.count, got)
		}
		if s.wm[i] != lv.y {
			t.Fatalf("level %d watermark mirror %d != %d", i, s.wm[i], lv.y)
		}
		verifyClosedInternal(t, i, lv.root, s.span)
	}
}

func countNodes(b *bucket) int {
	if b == nil {
		return 0
	}
	return 1 + countNodes(b.left) + countNodes(b.right)
}

func verifyClosedInternal(t *testing.T, lvl int, b *bucket, iv dyadic.Interval) {
	t.Helper()
	if b == nil || b.left == nil && b.right == nil {
		return
	}
	if !b.closed {
		t.Fatalf("level %d: internal bucket [%d,%d] not closed", lvl, iv.L, iv.R)
	}
	lc, rc := iv.Children()
	verifyClosedInternal(t, lvl, b.left, lc)
	verifyClosedInternal(t, lvl, b.right, rc)
}

func relDiff(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}
