package core

import (
	"math"
	"testing"

	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/hash"
)

// TestFoldedMergesAnswerAsUnfolded: merging F2 summaries that fold — live
// and from images, serving Both, LE or GE — answers every cutoff bit for bit
// as merging the same summaries with folding off does, and so does the
// merged summary fed on. Every merged tree keeps the fold invariant
// (checkInvariants), and folds are there to merge.
func TestFoldedMergesAnswerAsUnfolded(t *testing.T) {
	for _, dirs := range []Dirs{Both, LE, GE} {
		cfg := Config{
			Eps: 0.15, Delta: 0.1, YMax: 999_999, MaxStreamLen: 1 << 24, MaxX: 500_001,
			Seed: 42, Alpha: 48, Dirs: dirs,
		}
		// sites[0] folds, sites[1] does not; three summaries each: a
		// receiver, a site merged live and a site merged from its image.
		var sites [2][3]*Summary
		for k := range sites {
			for i := range sites[k] {
				sites[k][i] = mustSummary(t, F2Aggregate(), cfg)
				sites[k][i].folds = k == 0
			}
		}
		feed := func(i int, st gen.Stream, batch int) {
			t.Helper()
			tuples := gen.Collect(st)
			for len(tuples) > 0 {
				n := min(batch, len(tuples))
				for k := range sites {
					b := make([]Tuple, n)
					for j, tu := range tuples[:n] {
						b[j] = Tuple{X: tu.X, Y: tu.Y, W: 1}
					}
					if err := sites[k][i].AddBatch(b); err != nil {
						t.Fatal(err)
					}
				}
				tuples = tuples[n:]
			}
		}
		feed(0, gen.Uniform(60_000, 20_000, cfg.YMax+1, 21), 256)
		feed(1, gen.Zipf(50_000, 20_000, cfg.YMax+1, 1.1, 22), 4096)
		feed(2, gen.Uniform(40_000, 5_000, cfg.YMax+1, 23), 16)
		for i := range sites[0] {
			if n, _ := foldedBuckets(sites[0][i]); n == 0 {
				t.Fatalf("%b: site %d folded nothing; the test lost its point", dirs, i)
			}
		}
		for k := range sites {
			img, err := sites[k][2].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := sites[k][0].Merge(sites[k][1]); err != nil {
				t.Fatal(err)
			}
			if err := sites[k][0].MergeMarshaled(img); err != nil {
				t.Fatal(err)
			}
		}
		folded, unfolded := sites[0][0], sites[1][0]
		checkInvariants(t, folded)
		sameAnswers(t, dirs, "merged", folded, unfolded)
		feed(0, gen.Zipf(30_000, 20_000, cfg.YMax+1, 1.1, 24), 256)
		checkInvariants(t, folded)
		sameAnswers(t, dirs, "merged and fed on", folded, unfolded)
	}
}

// sameAnswers compares a and b on every serving level's first and last
// cutoff and 200 random ones, in each direction a serves.
func sameAnswers(t *testing.T, dirs Dirs, when string, a, b *Summary) {
	t.Helper()
	rng := hash.New(77)
	for d := range 2 {
		if dirs&(1<<d) == 0 {
			continue
		}
		var cs []uint64
		_, from, to := servingLevels(b, d)
		for k := range from {
			cs = append(cs, b.dist(d, from[k]), b.dist(d, to[k]-1))
		}
		for range 200 {
			cs = append(cs, rng.Uint64n(b.cfg.YMax+1))
		}
		for _, c := range cs {
			ga, la, ea := a.estimate(d, c)
			gb, lb, eb := b.estimate(d, c)
			if la != lb || ea != eb || math.Float64bits(ga) != math.Float64bits(gb) {
				t.Fatalf("%b, %s: direction %d at %d answers %v at level %d (%v) folded, %v at level %d (%v) unfolded",
					dirs, when, d, c, ga, la, ea, gb, lb, eb)
			}
		}
	}
}

// TestFoldedMergeRoundsAnswerAsUnfolded runs small Both summaries — a few
// buckets a level, sketches that go dense after two dozen identifiers —
// through rounds of ingest and merges, the receiver fed between rounds, and
// holds every cutoff's answer in both directions to the same summaries with
// folding off, bit for bit, after every merge.
func TestFoldedMergeRoundsAnswerAsUnfolded(t *testing.T) {
	trials := uint64(200)
	if testing.Short() {
		trials = 40
	}
	folded := 0
	for trial := range trials {
		rng := hash.New(trial)
		cfg := Config{
			Eps: 0.5, Delta: 0.2, YMax: 1023, MaxStreamLen: 1 << 14, MaxX: 1 << 8,
			Seed: trial, Alpha: 3 + int(trial%6), Dirs: Both,
		}
		pair := func() [2]*Summary { // folding, and not
			var p [2]*Summary
			for k := range p {
				p[k] = mustSummary(t, F2Aggregate(), cfg)
				p[k].folds = k == 0
			}
			return p
		}
		feed := func(p [2]*Summary) {
			lo, hi := rng.Uint64n(1024), rng.Uint64n(1024)
			lo, hi = min(lo, hi), max(lo, hi)
			batch := make([]Tuple, 1+rng.Uint64n(200))
			for j := range batch {
				batch[j] = Tuple{X: rng.Uint64n(64), Y: lo + rng.Uint64n(hi-lo+1), W: 1 + int64(rng.Uint64n(3))}
			}
			for _, s := range p {
				if err := s.AddBatch(append([]Tuple(nil), batch...)); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := pair()
		for range 4 {
			site := pair()
			for range 1 + rng.Uint64n(6) {
				feed(site)
			}
			for range rng.Uint64n(4) {
				feed(r)
			}
			for k := range r {
				if err := r[k].Merge(site[k]); err != nil {
					t.Fatal(err)
				}
			}
			checkInvariants(t, r[0])
			n, _ := foldedBuckets(r[0])
			folded += n
			for d := range dirs {
				for c := range cfg.YMax + 1 {
					ga, la, ea := r[0].estimate(d, c)
					gb, lb, eb := r[1].estimate(d, c)
					if la != lb || ea != eb || math.Float64bits(ga) != math.Float64bits(gb) {
						t.Fatalf("trial %d: direction %d at %d answers %v at level %d (%v) folded, %v at level %d (%v) unfolded",
							trial, d, c, ga, la, ea, gb, lb, eb)
					}
				}
			}
		}
	}
	if folded == 0 {
		t.Fatal("no bucket folded; the test lost its point")
	}
}
