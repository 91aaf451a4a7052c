package correlated_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/core"
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

// TestUnmarshalVersion2SketchImage reads testdata/f2_summary_v2.bin.gz, the
// F2Summary image the commit before sketches kept their items wrote: API
// image version 1 — an LE and a mirrored GE core image, each core image
// version 3 with version-2 sketch payloads. No live release writes any of
// them, and each is refused by name, wrapping ErrBadEncoding: the image,
// and the images a summary restored from it wrote since — two parts, or a
// GE summary's one part over mirrored y — by UnmarshalBinary and
// MergeMarshaled, which leave the receiver as it was; its LE image by a core
// summary.
func TestUnmarshalVersion2SketchImage(t *testing.T) {
	raw, err := os.ReadFile("testdata/f2_summary_v2.bin.gz")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// Version, predicate, then each direction's core image behind its
	// length plus one.
	rest := img[2:]
	var parts [2][]byte
	for i := range parts {
		n, sz := binary.Uvarint(rest)
		parts[i], rest = rest[sz:sz+int(n)-1], rest[sz+int(n)-1:]
	}
	part := func(head byte, img []byte) []byte {
		return append(binary.AppendUvarint([]byte{head}, uint64(len(img))), img...)
	}
	// The options and stream FuzzMergeMarshaled seeds with.
	o := correlated.Options{
		Eps: 0.25, Delta: 0.1, YMax: 1<<10 - 1,
		MaxStreamLen: 1 << 14, MaxX: 1 << 10,
		Alpha: 8, Seed: 11, Predicate: correlated.Both,
	}
	for _, c := range []struct {
		name string
		pred correlated.Predicate
		data []byte
		says string
	}{
		{"version 1", correlated.Both, img, "API image version 1"},
		{"two parts", correlated.Both, append(append([]byte{2, byte(correlated.Both), 2}, part(1, parts[0])...), part(0x82, parts[1])...), "restored from API image version 1"},
		{"mirrored part", correlated.GE, append([]byte{2, byte(correlated.GE), 1}, part(0x82, parts[1])...), "restored from API image version 1"},
	} {
		o.Predicate = c.pred
		s, err := correlated.NewF2Summary(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(7, 7); err != nil {
			t.Fatal(err)
		}
		before, _ := s.MarshalBinary()
		for _, apply := range []func([]byte) error{s.UnmarshalBinary, s.MergeMarshaled} {
			if err := apply(c.data); !errors.Is(err, correlated.ErrBadEncoding) || !strings.Contains(err.Error(), c.says) {
				t.Fatalf("%s: %v, want ErrBadEncoding saying %q", c.name, err, c.says)
			}
		}
		if after, _ := s.MarshalBinary(); !bytes.Equal(after, before) {
			t.Fatalf("%s: the refusal changed the receiver", c.name)
		}
	}
	cs, err := core.NewSummary(core.F2Aggregate(), core.Config{Eps: o.Eps, Delta: o.Delta, YMax: o.YMax, MaxStreamLen: o.MaxStreamLen, MaxX: o.MaxX, Alpha: o.Alpha, Seed: o.Seed, Dirs: core.LE})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.UnmarshalBinary(parts[0]); !errors.Is(err, core.ErrBadEncoding) || !strings.Contains(err.Error(), "core image version 3") {
		t.Fatalf("the LE core image: %v, want core.ErrBadEncoding naming version 3", err)
	}
}
