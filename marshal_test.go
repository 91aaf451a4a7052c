package correlated_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"os"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/gen"
)

func TestF2SummaryRoundTrip(t *testing.T) {
	o := opts(correlated.Both, 31)
	src, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Uniform(60000, 2000, 1<<16, 33)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := src.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
	}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint64{1 << 12, 1 << 15} {
		a, _ := src.QueryLE(c)
		b, _ := dst.QueryLE(c)
		if a != b {
			t.Fatalf("LE %d: %v vs %v", c, a, b)
		}
		a, _ = src.QueryGE(c)
		b, _ = dst.QueryGE(c)
		if a != b {
			t.Fatalf("GE %d: %v vs %v", c, a, b)
		}
	}
	if src.Space() != dst.Space() {
		t.Fatalf("space %d vs %d", src.Space(), dst.Space())
	}
}

func TestCountAndSumRoundTrip(t *testing.T) {
	o := opts(correlated.LE, 37)
	cs, err := correlated.NewCountSummary(o)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := correlated.NewSumSummary(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30000; i++ {
		y := (i * 2654435761) % (1 << 16)
		if err := cs.Add(i%1000, y); err != nil {
			t.Fatal(err)
		}
		if err := ss.Add(i%1000+1, y); err != nil {
			t.Fatal(err)
		}
	}
	csData, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ssData, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cs2, _ := correlated.NewCountSummary(o)
	ss2, _ := correlated.NewSumSummary(o)
	if err := cs2.UnmarshalBinary(csData); err != nil {
		t.Fatal(err)
	}
	if err := ss2.UnmarshalBinary(ssData); err != nil {
		t.Fatal(err)
	}
	a, _ := cs.QueryLE(1 << 14)
	b, _ := cs2.QueryLE(1 << 14)
	if a != b {
		t.Fatalf("count: %v vs %v", a, b)
	}
	a, _ = ss.QueryLE(1 << 14)
	b, _ = ss2.QueryLE(1 << 14)
	if a != b {
		t.Fatalf("sum: %v vs %v", a, b)
	}
	// Cross-type restore must fail (COUNT bytes into SUM summary).
	if err := ss2.UnmarshalBinary(csData); err == nil {
		t.Fatal("COUNT bytes accepted by SUM summary")
	}
}

func TestFkSummaryRoundTrip(t *testing.T) {
	o := opts(correlated.LE, 41)
	o.Eps = 0.3
	src, err := correlated.NewFkSummary(3, o)
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Zipf(40000, 3000, 1<<16, 1.4, 43)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := src.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
	}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := correlated.NewFkSummary(3, o)
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	a, _ := src.QueryLE(1 << 15)
	b, _ := dst.QueryLE(1 << 15)
	if a != b {
		t.Fatalf("Fk: %v vs %v", a, b)
	}
}

func TestF0SummaryRoundTrip(t *testing.T) {
	o := opts(correlated.Both, 47)
	o.MaxX = 1 << 16
	src, err := correlated.NewF0Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Uniform(80000, 1<<16, 1<<16, 49)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := src.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
	}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := correlated.NewF0Summary(o)
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint64{1 << 12, 1 << 15} {
		a, _ := src.QueryLE(c)
		b, _ := dst.QueryLE(c)
		if a != b {
			t.Fatalf("F0 LE %d: %v vs %v", c, a, b)
		}
		ra, _ := src.RarityLE(c)
		rb, _ := dst.RarityLE(c)
		if ra != rb {
			t.Fatalf("rarity %d: %v vs %v", c, ra, rb)
		}
	}
	if src.Count() != dst.Count() || src.Space() != dst.Space() {
		t.Fatal("bookkeeping differs after restore")
	}
	// Restored structure keeps ingesting identically.
	for i := uint64(0); i < 10000; i++ {
		x, y := i%(1<<16), (i*31)%(1<<16)
		if err := src.Add(x, y); err != nil {
			t.Fatal(err)
		}
		if err := dst.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := src.QueryLE(1 << 14)
	b, _ := dst.QueryLE(1 << 14)
	if a != b {
		t.Fatalf("post-restore divergence: %v vs %v", a, b)
	}
}

func TestRoundTripPredicateMismatch(t *testing.T) {
	src, _ := correlated.NewF2Summary(opts(correlated.LE, 51))
	if err := src.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := correlated.NewF2Summary(opts(correlated.Both, 51))
	if err := dst.UnmarshalBinary(data); err == nil {
		t.Fatal("predicate mismatch accepted")
	}
}

// TestUnmarshalVersion2SketchImage loads an F2Summary image written by the
// commit before sketches kept their items (PR 15; sketch payload version 2,
// every sketch a full counter array) — what a snapshot whose WAL prefix is
// gone still holds. It must load, every sketch dense, and answer with the
// bits that commit answered with, since the counters are the same; then
// keep ingesting and round-trip through today's image.
func TestUnmarshalVersion2SketchImage(t *testing.T) {
	f, err := os.Open("testdata/f2_summary_v2.bin.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The options and stream FuzzMergeMarshaled seeds with.
	o := correlated.Options{
		Eps: 0.25, Delta: 0.1, YMax: 1<<10 - 1,
		MaxStreamLen: 1 << 14, MaxX: 1 << 10,
		Alpha: 8, Seed: 11, Predicate: correlated.Both,
	}
	s, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(img); err != nil {
		t.Fatalf("version-2 image: %v", err)
	}
	if s.Count() != 4000 {
		t.Fatalf("restored Count %d, want 4000", s.Count())
	}
	le, ge := s.Occupancy()
	dense := 0
	for _, o := range append(le, ge...) {
		dense += o.Dense
		if o.Items != 0 {
			t.Fatalf("level %d restored %d sketches in the items form from counters alone", o.Level, o.Items)
		}
	}
	if dense == 0 {
		t.Fatal("no sketch restored")
	}
	for _, q := range []struct{ c, le, ge uint64 }{
		{5, 0x403b000000000000, 0x40bd8a0000000000},
		{100, 0x4057800000000000, 0x40bd8a0000000000},
		{300, 0x40a35c0000000000, 0x40b5f50000000000},
		{512, 0x40c0648000000000, 0x40bb6f0000000000},
		{900, 0x40c7bd8000000000, 0x4053c00000000000},
	} {
		le, err := s.QueryLE(q.c)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := s.QueryGE(q.c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(le) != q.le || math.Float64bits(ge) != q.ge {
			t.Errorf("cutoff %d: LE %#x GE %#x, the writer answered %#x and %#x",
				q.c, math.Float64bits(le), math.Float64bits(ge), q.le, q.ge)
		}
	}
	if err := s.Add(7, 7); err != nil {
		t.Fatal(err)
	}
	now, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(now); err != nil {
		t.Fatal(err)
	}
	if again, _ := back.MarshalBinary(); !bytes.Equal(again, now) {
		t.Fatal("restored version-2 summary does not round-trip through today's image")
	}
}
