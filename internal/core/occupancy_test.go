package core

import (
	"reflect"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// TestOccupancyAddsUpToSpace: the per-level rows are a breakdown of Space
// and Buckets — nothing counted twice, nothing left out — at every stage of
// a summary's life, for sketches with forms and without, and a restored
// summary occupies what the live one did.
func TestOccupancyAddsUpToSpace(t *testing.T) {
	for name, agg := range map[string]Aggregate{"F2": F2Aggregate(), "COUNT": CountAggregate()} {
		cfg := Config{Eps: 0.2, Delta: 0.1, YMax: 1<<14 - 1, MaxStreamLen: 200_000, MaxX: 5000, Seed: 17}
		s := mustSummary(t, agg, cfg)
		rng := hash.New(31)
		check := func(when string) []LevelOccupancy {
			t.Helper()
			rows := s.Occupancy()
			if len(rows) != s.Levels()+1 {
				t.Fatalf("%s %s: %d rows for %d levels", name, when, len(rows), s.Levels())
			}
			var counters int64
			stored := 0
			for i, o := range rows {
				counters += o.Counters
				stored += o.Stored
				formed := o.Items + o.Dense
				if o.Level != i || o.Closed > o.Stored || formed+o.Untouched > o.Stored ||
					(name == "F2" && formed+o.Untouched != o.Stored) || (name == "COUNT" && formed != 0) {
					t.Fatalf("%s %s: inconsistent row %+v", name, when, o)
				}
				if o.Watermark != s.Watermark(i) || o.Virgin != (i >= s.virginFrom && i > 0) {
					t.Fatalf("%s %s: row %+v, watermark %d, virginFrom %d", name, when, o, s.Watermark(i), s.virginFrom)
				}
			}
			if counters != s.Space() || stored != s.Buckets() {
				t.Fatalf("%s %s: rows hold %d counters in %d buckets, Space %d Buckets %d",
					name, when, counters, stored, s.Space(), s.Buckets())
			}
			return rows
		}
		check("empty")
		for i := 0; i < 60_000; i++ {
			if err := s.Add(rng.Uint64n(5000), rng.Uint64n(1<<14)); err != nil {
				t.Fatal(err)
			}
			if i == 50 || i == 5000 {
				check("growing")
			}
		}
		rows := check("full")
		if name == "F2" {
			items, dense := 0, 0
			for _, o := range rows {
				items += o.Items
				dense += o.Dense
			}
			if items == 0 || dense == 0 {
				t.Fatalf("F2: %d items-form and %d dense buckets; the stream should leave both", items, dense)
			}
		}
		img, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored := mustSummary(t, agg, cfg)
		if err := restored.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		if got := restored.Occupancy(); !reflect.DeepEqual(got, rows) {
			t.Fatalf("%s: restored summary occupies\n%+v\nlive\n%+v", name, got, rows)
		}
	}
}
