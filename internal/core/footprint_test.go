package core

import (
	"testing"

	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/sketch"
)

// The struct sizes Footprint's Headers are made of, as the allocator rounds
// them: a bucket node and a CountSketch are 80 bytes each, the array headers
// of a dense sketch 56 in the 64-byte class, and those of a dense sketch past
// one byte a counter 48 more (sketch.TestCountSketchStructSize pins the
// sketch's).
const (
	wantBucketBytes = 80
	wantSketchBytes = 80
	wantDenseBytes  = 64
	wantWideBytes   = 48
)

// widened counts the dense sketches of s past one byte a counter.
func widened(s *Summary) int {
	m, ok := s.maker.(*sketch.F2Maker)
	if !ok {
		return 0
	}
	n, narrow := 0, m.Width()*m.Depth()+8*m.Depth()
	count := func(sk sketch.Sketch) {
		if f, ok := sk.(formed); ok && f.Dense() && f.Bytes() > narrow {
			n++
		}
	}
	var walk func(b *bucket)
	walk = func(b *bucket) {
		if b != nil {
			count(b.sk)
			walk(b.left)
			walk(b.right)
		}
	}
	for _, b := range s.s0.buckets {
		count(b.sk)
	}
	for i := 1; i <= s.lmax; i++ {
		walk(s.levels[i].root)
	}
	count(s.shared)
	return n
}

// checkFootprint compares s.Footprint — running counts — with what a walk of s
// finds: Held is Occupancy's Bytes added up, Pooled is Occupancy's, Headers
// is the structs of each sketch and bucket the walk meets.
func checkFootprint(t *testing.T, when string, s *Summary) Footprint {
	t.Helper()
	var held, pooled, charged int64
	sketches, dense, buckets := 1, 0, 0 // the shared sketch is on no row's Items or Dense
	if f, ok := s.shared.(formed); ok && f.Dense() {
		dense++
	}
	for i, o := range s.Occupancy() {
		held += o.Bytes
		pooled += o.Pooled
		sketches += o.Items + o.Dense
		dense += o.Dense
		buckets += o.Stored
		if i == 0 {
			charged += 8 * int64(o.Stored)
		} else {
			charged += 16 * int64(o.Stored)
		}
	}
	wide := widened(s)
	got := s.Footprint()
	want := Footprint{
		Held:    held,
		Pooled:  pooled,
		Headers: int64(sketches*wantSketchBytes+dense*wantDenseBytes+wide*wantWideBytes+buckets*wantBucketBytes) - charged,
	}
	if got != want {
		t.Fatalf("%s: Footprint %+v, the walk finds %+v (%d sketches, %d dense of which %d widened, %d buckets)",
			when, got, want, sketches, dense, wide, buckets)
	}
	return got
}

// TestFootprintIsTheWalk: the running counts behind Footprint equal a walk of
// the summary after every kind of change a summary's life holds — ingest of
// corrdbench's two stream shapes, queries, a merge of a live summary, an image
// folded in, an image installed over a used summary and into a fresh one, and
// images that fail to parse part-way in, which must leave nothing on the
// books.
func TestFootprintIsTheWalk(t *testing.T) {
	n := 400_000
	if testing.Short() || raceEnabled {
		n = 60_000
	}
	cfg := Config{Eps: 0.15, Delta: 0.1, YMax: 999_999, MaxStreamLen: 1 << 24, MaxX: 500_001, Seed: 42}
	s := mustSummary(t, F2Aggregate(), cfg)
	empty := checkFootprint(t, "empty", s)
	feed := func(s *Summary, st gen.Stream) {
		t.Helper()
		batch := make([]Tuple, 0, 4096)
		for {
			tu, ok := st.Next()
			if ok {
				batch = append(batch, Tuple{X: tu.X, Y: tu.Y, W: 1})
			}
			if len(batch) == cap(batch) || (!ok && len(batch) > 0) {
				if err := s.AddBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
			if !ok {
				return
			}
		}
	}
	feed(s, gen.Uniform(n, 500_000, 1_000_000, 1))
	checkFootprint(t, "after the uniform stream", s)
	feed(s, gen.Zipf(n, 500_000, 1_000_000, 1.1, 2))
	f := checkFootprint(t, "after the zipf stream", s)
	if f.Held == 0 || f.Pooled == 0 || f.Headers == 0 || widened(s) == 0 {
		t.Fatalf("the streams should leave bytes of every kind, and widened arrays: %+v, %d widened", f, widened(s))
	}
	for c := uint64(0); c < 1_000_000; c += 99_991 {
		if _, err := s.Query(c); err != nil {
			t.Fatal(err)
		}
	}
	if g := checkFootprint(t, "after queries", s); g.Held != f.Held || g.Headers != f.Headers {
		t.Fatalf("queries moved the footprint from %+v to %+v", f, g)
	}

	other := mustSummary(t, F2Aggregate(), cfg)
	feed(other, gen.Zipf(n/4, 500_000, 1_000_000, 1.1, 3))
	if err := s.Merge(other); err != nil {
		t.Fatal(err)
	}
	checkFootprint(t, "after Merge", s)
	checkFootprint(t, "the merged-in summary", other)

	img, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	f = checkFootprint(t, "before the failed parses", s)
	for cut := 1; cut < len(img); cut += len(img)/97 + 1 {
		if err := s.MergeMarshaled(img[:cut]); err == nil {
			t.Fatalf("an image cut at %d of %d bytes merged", cut, len(img))
		}
		// What a failed parse decoded goes back to the free lists.
		if g := checkFootprint(t, "after a failed parse", s); g.Held != f.Held || g.Headers != f.Headers {
			t.Fatalf("an image cut at %d of %d bytes moved the footprint from %+v to %+v", cut, len(img), f, g)
		}
	}
	if err := s.MergeMarshaled(img); err != nil {
		t.Fatal(err)
	}
	checkFootprint(t, "after MergeMarshaled", s)

	if img, err = s.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	fresh := mustSummary(t, F2Aggregate(), cfg)
	if err := fresh.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	f = checkFootprint(t, "restored into a fresh summary", fresh)
	if err := other.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if g := checkFootprint(t, "restored over a used summary", other); g.Held != f.Held || g.Headers != f.Headers {
		t.Fatalf("one image restores to %+v in a fresh summary and %+v over a used one", f, g)
	}
	other.Reset()
	if g := checkFootprint(t, "after Reset", other); g.Held != empty.Held || g.Headers != empty.Headers {
		t.Fatalf("a reset summary holds %+v, an empty one %+v", g, empty)
	}

	// A maker that keeps no books: every counter is charged a word.
	count := mustSummary(t, CountAggregate(), cfg)
	feed(count, gen.Uniform(n/8, 500_000, 1_000_000, 4))
	if got, want := checkFootprintWords(t, count), (Footprint{Held: 8 * count.Space()}); got != want {
		t.Fatalf("COUNT: Footprint %+v, want %+v", got, want)
	}
}

// checkFootprintWords is checkFootprint for a summary whose maker keeps no
// books: Held is Occupancy's Bytes, and there is nothing else.
func checkFootprintWords(t *testing.T, s *Summary) Footprint {
	t.Helper()
	var held int64
	for _, o := range s.Occupancy() {
		held += o.Bytes
	}
	got := s.Footprint()
	if got.Held != held {
		t.Fatalf("Footprint holds %d, Occupancy's rows %d", got.Held, held)
	}
	return got
}
