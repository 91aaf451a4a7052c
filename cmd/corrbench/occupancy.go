package main

import (
	"fmt"
	"io"
	"math"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/gen"
)

// occupancyShape is one stream fed to an F2 summary configured as the
// corrdbench server is, to see where its counters sit.
type occupancyShape struct {
	name  string
	n     int // tuples one tenant receives
	batch int // tuples per AddBatch
	zipf  bool
}

// occupancyPresets are the per-tenant streams of corrdbench's four
// workloads at its default 10 s: tuple counts (warm-up included),
// distributions, batch sizes and the two interleaved seeded lanes. corrd
// applies one AddBatch per tenant per commit group, which under load spans
// several frames, so the daemon's own counts sit within a few per cent of
// these rather than on them.
var occupancyPresets = []occupancyShape{
	{"stream-saturate", 3_600_000, 256, false},
	{"http-small", 240_000, 16, false},
	{"mixed-paced", 600_000, 256, true},
	{"tenants-restart", 75_000, 256, true},
}

// occupancyTable writes Summary.Occupancy for the presets, or with -n for
// that stream length under each distribution, to w. Per shape, the summary
// lines say what the rows add up to and, beside it, the Footprint: held,
// pooled and header bytes, from the counts the summary keeps.
func occupancyTable(w io.Writer, n int) {
	shapes := occupancyPresets
	if n > 0 {
		shapes = []occupancyShape{{"uniform", n, 256, false}, {"zipf1", n, 256, true}}
	}
	fmt.Fprintln(w, "# Occupancy: where an F2 summary's counters sit, per level (eps=0.15, delta=0.1, ymax=1e6, maxn=2^24, as corrdbench runs corrd)")
	fmt.Fprintln(w, "shape\tn\tdir\tlevel\tstored\tclosed\tuntouched\titems\tdense\tcounters\tbytes\twatermark")
	for _, sh := range shapes {
		s := occupancySummary(sh)
		le, ge := s.Occupancy()
		// Bytes behind the counters; of them, items tables (closed buckets' cut
		// ones) and dense arrays; and, beside them, in the makers' free lists.
		var held, tables, closed, arrays, pooled int64
		for _, dir := range []struct {
			name string
			rows []correlated.LevelOccupancy
		}{{"LE", le}, {"GE", ge}} {
			virgin := 0
			for _, o := range dir.rows {
				held += o.Bytes
				tables += o.ItemsBytes
				closed += o.ClosedItemsBytes
				arrays += o.DenseBytes
				pooled += o.Pooled
				if o.Virgin && o.Counters == 2 {
					virgin++ // an untouched root and nothing else
					continue
				}
				mark := "-"
				if o.Watermark != math.MaxUint64 {
					mark = fmt.Sprint(o.Watermark)
				}
				fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n", sh.name, sh.n, dir.name,
					o.Level, o.Stored, o.Closed, o.Untouched, o.Items, o.Dense, o.Counters, o.Bytes, mark)
			}
			fmt.Fprintf(w, "# %s %s: %d further levels are virgin, two counters each\n", sh.name, dir.name, virgin)
		}
		img, err := s.MarshalBinary()
		die(err)
		fmt.Fprintf(w, "# %s: space %d counters in %d bytes (items tables %d, of which closed buckets' %d, dense arrays %d, pooled beside them %d), image %d bytes\n",
			sh.name, s.Space(), held, tables, closed, arrays, pooled, len(img))
		f := s.Footprint()
		fmt.Fprintf(w, "# %s: footprint held %d, pooled %d, headers %d bytes (headers %.1f %% of held)\n",
			sh.name, f.Held, f.Pooled, f.Headers, 100*float64(f.Headers)/float64(f.Held))
	}
}

// occupancySummary feeds one shape's stream to an F2 summary configured as
// corrd is under corrdbench: two seeded lanes taking turns a batch at a time.
func occupancySummary(sh occupancyShape) *correlated.F2Summary {
	s, err := correlated.NewF2Summary(correlated.Options{
		Eps: 0.15, Delta: 0.1, YMax: ymaxPaper,
		MaxStreamLen: 1 << 24, MaxX: xdomF2, Seed: 42,
		Predicate: correlated.Both,
	})
	die(err)
	const xdom, seedStride = 100_001, 1_000_003 // corrdbench's identifier domain and lane seeds
	lanes := make([]gen.Stream, 2)
	for i := range lanes {
		if laneSeed := *seed + uint64(i)*seedStride; sh.zipf {
			lanes[i] = gen.Zipf(math.MaxInt, xdom, ymaxPaper+1, 1, laneSeed)
		} else {
			lanes[i] = gen.Uniform(math.MaxInt, xdom, ymaxPaper+1, laneSeed)
		}
	}
	batch := make([]correlated.Tuple, 0, sh.batch)
	for sent, lane := 0, 0; sent < sh.n; lane ^= 1 {
		for batch = batch[:0]; len(batch) < sh.batch && sent < sh.n; sent++ {
			t, _ := lanes[lane].Next()
			batch = append(batch, correlated.Tuple{X: t.X, Y: t.Y, W: 1})
		}
		die(s.AddBatch(batch))
	}
	return s
}
