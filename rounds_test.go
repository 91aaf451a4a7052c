package correlated

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/exact"
)

// The merge-rounds fixture: a stream split round-robin over S sites and
// shipped to a coordinator in R rounds of delta images — each round every
// site ingests its share, marshals, and resets, and the coordinator merges
// the image (corrd's sites forward their logs instead, and the coordinator
// merges nothing) — set against one summary of the whole stream and against
// S cumulative images, each site's whole share merged once. corrd's
// options, QueryLE at six cutoffs, answers against internal/exact.

// roundsCutoffs are the cutoffs every row is asked at.
var roundsCutoffs = []uint64{1_000, 10_000, 100_000, 300_000, 600_000, 999_999}

// roundsSummary is what the fixture needs of the F2 and COUNT summaries.
type roundsSummary interface {
	AddBatch(batch []Tuple) error
	QueryLE(c uint64) (float64, error)
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
	MergeMarshaled(data []byte) error
	Reset()
	Occupancy() []LevelOccupancy
	Footprint() Footprint
}

// roundsStream returns n tuples from a xorshift seeded with 7: x uniform over
// 500 001 identifiers, or zipf as ⌊500 001^u⌋ − 1; y uniform over [0, 10^6).
func roundsStream(n int, zipf bool) []Tuple {
	s := uint64(7)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	ts := make([]Tuple, n)
	for i := range ts {
		var x uint64
		if zipf {
			u := float64(next()>>11) / (1 << 53)
			x = uint64(math.Pow(500_001, u)) - 1
		} else {
			x = next() % 500_001
		}
		ts[i] = Tuple{X: x, Y: next() % 1_000_000, W: 1}
	}
	return ts
}

// feedFrames ingests ts in 256-tuple frames, as corrd's stream clients send.
func feedFrames(t *testing.T, s roundsSummary, ts []Tuple) {
	t.Helper()
	for len(ts) > 0 {
		n := min(len(ts), 256)
		if err := s.AddBatch(append([]Tuple(nil), ts[:n]...)); err != nil {
			t.Fatal(err)
		}
		ts = ts[n:]
	}
}

// maxRelErr is the largest relative error of s's QueryLE over the cutoffs.
func maxRelErr(t *testing.T, s roundsSummary, want func(c uint64) float64) float64 {
	t.Helper()
	worst := 0.0
	for _, c := range roundsCutoffs {
		got, err := s.QueryLE(c)
		if err != nil {
			t.Fatalf("QueryLE(%d): %v", c, err)
		}
		if w := want(c); w > 0 {
			worst = math.Max(worst, math.Abs(got-w)/w)
		}
	}
	return worst
}

// checkMergedState fails unless s's Footprint is what a walk of its
// Occupancy finds and its image decodes to a summary that encodes to the same
// bytes.
func checkMergedState(t *testing.T, when string, s roundsSummary, fresh func() roundsSummary) {
	t.Helper()
	var walk Footprint
	var sketches int64
	for _, o := range s.Occupancy() {
		walk.Held += o.Bytes
		walk.Pooled += o.Pooled
		sketches += o.ItemsBytes + o.DenseBytes
	}
	f := s.Footprint()
	if f.Arena == 0 && (f.Held != walk.Held || f.Pooled != walk.Pooled) {
		t.Fatalf("%s: Footprint %+v, the walk finds held %d, pooled %d", when, f, walk.Held, walk.Pooled)
	}
	// Counters in an arena: Held is the sketches' storage, the arena maps it
	// and Pooled, and Pooled is the arena's share of what the rows pool.
	if f.Arena != 0 && (f.Held != sketches || f.Held+f.Pooled != f.Arena || f.Pooled > walk.Pooled) {
		t.Fatalf("%s: Footprint %+v, the walk finds sketches holding %d, pooled %d", when, f, sketches, walk.Pooled)
	}
	img, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := fresh()
	if err := back.UnmarshalBinary(img); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if again, err := back.MarshalBinary(); err != nil || !bytes.Equal(again, img) {
		t.Fatalf("%s: the image does not round-trip byte for byte (%v)", when, err)
	}
}

// siteShare is site i's share of a stretch of the stream: every s-th tuple.
func siteShare(part []Tuple, s, i int) []Tuple {
	var out []Tuple
	for j := i; j < len(part); j += s {
		out = append(out, part[j])
	}
	return out
}

// deltaRounds ships ts to a fresh coordinator in r rounds of delta images
// from s sites and checks the merged state after every round.
func deltaRounds(t *testing.T, fresh func() roundsSummary, ts []Tuple, s, r int) roundsSummary {
	t.Helper()
	coord, site := fresh(), fresh()
	per := (len(ts) + r - 1) / r
	for round := range r {
		part := ts[min(round*per, len(ts)):min((round+1)*per, len(ts))]
		for i := range s {
			feedFrames(t, site, siteShare(part, s, i))
			img, err := site.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.MergeMarshaled(img); err != nil {
				t.Fatal(err)
			}
			site.Reset()
		}
		checkMergedState(t, fmt.Sprintf("S=%d R=%d, after round %d", s, r, round), coord, fresh)
	}
	return coord
}

// TestMergeRoundsAccuracy holds what stays within ε — one summary of the
// stream, and S cumulative images merged once — at every cutoff, and checks
// the merged state after every merge. The delta-round protocol, which merges
// k = S × R images, loses mass with k: at ε it is logged, not held. At ε/k,
// at the site and at the coordinator — Lemma 4's remedy — COUNT's delta
// rounds are held within ε for k = 8 and 32 (not under -short or the race
// detector).
func TestMergeRoundsAccuracy(t *testing.T) {
	// At 200 000 tuples the delta rounds cross ε by k = 32 (and a zipf stream
	// by k = 8); -short's 40 000 stay inside it.
	n, sites, rounds := 200_000, []int{1, 4}, []int{8}
	if testing.Short() || raceEnabled {
		n, rounds = 40_000, []int{4}
	}
	opts := Options{
		Eps: 0.15, Delta: 0.1, YMax: 999_999, MaxX: 500_001,
		MaxStreamLen: 1 << 24, Seed: 42, Predicate: Both,
	}
	newF2 := func() roundsSummary {
		s, err := NewF2Summary(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	newCount := func() roundsSummary {
		s, err := NewCountSummary(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		zipf  bool
		fresh func() roundsSummary
		want  func(b *exact.Baseline) func(c uint64) float64
		tight bool // hold the ε/k rows
	}{
		{"F2/uniform", false, newF2, func(b *exact.Baseline) func(uint64) float64 { return b.F2 }, false},
		{"F2/zipf", true, newF2, func(b *exact.Baseline) func(uint64) float64 { return b.F2 }, false},
		{"COUNT/uniform", false, newCount, func(b *exact.Baseline) func(uint64) float64 { return b.Count1 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := roundsStream(n, tc.zipf)
			truth := exact.New()
			for _, tu := range ts {
				truth.Add(tu.X, tu.Y)
			}
			want := tc.want(truth)
			eps := opts.Eps

			one := tc.fresh()
			feedFrames(t, one, ts)
			if e := maxRelErr(t, one, want); e > eps {
				t.Errorf("one summary of the stream: max relative error %.3f > ε = %.2f", e, eps)
			}

			for _, s := range sites {
				cum := tc.fresh()
				for i := range s {
					site := tc.fresh()
					feedFrames(t, site, siteShare(ts, s, i))
					img, err := site.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if err := cum.MergeMarshaled(img); err != nil {
						t.Fatal(err)
					}
					checkMergedState(t, fmt.Sprintf("S=%d cumulative, after site %d", s, i), cum, tc.fresh)
				}
				if e := maxRelErr(t, cum, want); e > eps {
					t.Errorf("S=%d cumulative images: max relative error %.3f > ε = %.2f", s, e, eps)
				}

				for _, r := range rounds {
					coord := deltaRounds(t, tc.fresh, ts, s, r)
					t.Logf("S=%d R=%d, k=%d merges: delta rounds max relative error %.3f (ε = %.2f)",
						s, r, s*r, maxRelErr(t, coord, want), eps)
				}
			}

			if !tc.tight || testing.Short() || raceEnabled {
				return
			}
			for _, k := range []int{8, 32} {
				tight := opts
				tight.Eps = eps / float64(k)
				fresh := func() roundsSummary {
					s, err := NewCountSummary(tight)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				e := maxRelErr(t, deltaRounds(t, fresh, ts, 1, k), want)
				t.Logf("S=1 R=%d at ε/k = %.4f: delta rounds max relative error %.3f", k, tight.Eps, e)
				if e > eps {
					t.Errorf("S=1 R=%d at ε/k: max relative error %.3f > ε = %.2f", k, e, eps)
				}
			}
		})
	}
}
