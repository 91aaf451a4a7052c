package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/hash"
)

// TestPropertyCountMatchesExact: for arbitrary seeded random streams, the
// COUNT summary (exact counter sketches, so all error is structural) must
// answer every cutoff within eps.
func TestPropertyCountMatchesExact(t *testing.T) {
	const ymax = 1<<12 - 1
	const eps = 0.1
	prop := func(seed uint64) bool {
		s, err := NewSummary(CountAggregate(), Config{
			Eps: eps, Delta: 0.1, YMax: ymax, MaxStreamLen: 20000, Seed: seed,
		})
		if err != nil {
			return false
		}
		rng := hash.New(seed ^ 0xabcdef)
		counts := make([]int64, ymax+1)
		n := 5000 + int(rng.Uint64n(15000))
		for i := 0; i < n; i++ {
			y := rng.Uint64n(ymax + 1)
			if err := s.Add(rng.Uint64n(100), y); err != nil {
				return false
			}
			counts[y]++
		}
		var cum int64
		cums := make([]int64, ymax+1)
		for y := uint64(0); y <= ymax; y++ {
			cum += counts[y]
			cums[y] = cum
		}
		for trial := 0; trial < 8; trial++ {
			c := rng.Uint64n(ymax + 1)
			got, err := s.Query(c)
			if err != nil {
				return false
			}
			want := float64(cums[c])
			if want == 0 {
				if got != 0 {
					return false
				}
				continue
			}
			if math.Abs(got-want)/want > eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBucketInvariants: after arbitrary streams, every level
// respects its capacity, tree structure, and watermark bookkeeping, and
// after every insertion no level's leaf cache holds a discarded bucket.
func TestPropertyBucketInvariants(t *testing.T) {
	const ymax = 1<<10 - 1
	prop := func(seed uint64, alphaRaw uint8) bool {
		alpha := 8 + int(alphaRaw%64)
		s, err := NewSummary(CountAggregate(), Config{
			Eps: 0.2, Delta: 0.1, YMax: ymax, MaxStreamLen: 20000,
			Alpha: alpha, Seed: seed,
		})
		if err != nil {
			return false
		}
		rng := hash.New(seed)
		for i := 0; i < 20000; i++ {
			if err := s.Add(rng.Uint64n(50), rng.Uint64n(ymax+1)); err != nil {
				return false
			}
			for l := 1; l <= s.lmax; l++ {
				if !cacheReachable(s, l) {
					return false
				}
			}
		}
		for i := 1; i <= s.lmax; i++ {
			lv := s.levels[i]
			if lv.count > alpha {
				return false
			}
			if !checkTree(lv.root, s.span) {
				return false
			}
		}
		if len(s.s0.buckets) > alpha {
			return false
		}
		// Every singleton below the S0 watermark.
		for y := range s.s0.buckets {
			if y >= s.s0.y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// checkTree verifies dyadic structure: children are created in pairs and
// discarded right-first, so a right child never stands without its left
// sibling, and a single point has none.
func checkTree(b *bucket, iv dyadic.Interval) bool {
	if b == nil || b.left == nil && b.right == nil {
		return true
	}
	if b.left == nil || iv.Single() {
		return false
	}
	lc, rc := iv.Children()
	return checkTree(b.left, lc) && checkTree(b.right, rc)
}

// cacheReachable reports whether level i's cached leaf, if it has one, is the
// bucket its tree holds at the cached interval: no discarded bucket is
// reachable through the cache.
func cacheReachable(s *Summary, i int) bool {
	c := s.cache[i]
	if c.b == nil {
		return true
	}
	b, iv := s.levels[i].root, s.span
	for b != nil && iv != c.iv {
		if iv.Single() || !iv.Contains(c.iv.L) {
			return false
		}
		lc, rc := iv.Children()
		if c.iv.L <= lc.R {
			b, iv = b.left, lc
		} else {
			b, iv = b.right, rc
		}
	}
	return b == c.b
}

// TestPropertySumMatchesExact: SUM through the reduction on random
// streams.
func TestPropertySumMatchesExact(t *testing.T) {
	const ymax = 1<<10 - 1
	const eps = 0.1
	prop := func(seed uint64) bool {
		s, err := NewSummary(SumAggregate(), Config{
			Eps: eps, Delta: 0.1, YMax: ymax, MaxStreamLen: 10000,
			MaxX: 1000, Seed: seed,
		})
		if err != nil {
			return false
		}
		rng := hash.New(seed ^ 0x1234)
		sums := make([]float64, ymax+1)
		for i := 0; i < 10000; i++ {
			x := rng.Uint64n(1000) + 1
			y := rng.Uint64n(ymax + 1)
			if err := s.Add(x, y); err != nil {
				return false
			}
			sums[y] += float64(x)
		}
		var cum float64
		for y := uint64(0); y <= ymax; y++ {
			cum += sums[y]
			sums[y] = cum
		}
		for trial := 0; trial < 5; trial++ {
			c := rng.Uint64n(ymax + 1)
			got, err := s.Query(c)
			if err != nil {
				return false
			}
			if sums[c] == 0 {
				if got != 0 {
					return false
				}
				continue
			}
			if math.Abs(got-sums[c])/sums[c] > eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
