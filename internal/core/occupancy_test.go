package core

import (
	"reflect"
	"testing"

	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/hash"
)

// TestOccupancyAddsUpToSpace: the per-level rows are a breakdown of Space
// and Buckets — nothing counted twice, nothing left out — at every stage of
// a summary's life, for sketches with forms and without, and a restored
// summary occupies what the live one did, but for what the live one's maker
// has pooled: that is reported beside the rows, on S0's, within the lists'
// bound.
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
					o.ClosedItemsBytes > o.ItemsBytes || (o.Closed == 0 && o.ClosedItemsBytes != 0) ||
					(name == "F2" && formed+o.Untouched != o.Stored) || (name == "COUNT" && formed != 0) {
					t.Fatalf("%s %s: inconsistent row %+v", name, when, o)
				}
				if i > 0 && o.Pooled != 0 {
					t.Fatalf("%s %s: level %d reports %d pooled bytes; they belong to no level", name, when, i, o.Pooled)
				}
				if o.Watermark != s.Watermark(i) || o.Virgin != (i >= s.virginFrom && i > 0) {
					t.Fatalf("%s %s: row %+v, watermark %d, virginFrom %d", name, when, o, s.Watermark(i), s.virginFrom)
				}
			}
			if p, ok := s.maker.(pooler); ok {
				if held, bound := p.PooledBytes(); rows[0].Pooled != int64(held) || held > bound {
					t.Fatalf("%s %s: %d bytes pooled, the maker holds %d of at most %d", name, when, rows[0].Pooled, held, bound)
				}
			} else if rows[0].Pooled != 0 {
				t.Fatalf("%s %s: %d bytes pooled by a maker without lists", name, when, rows[0].Pooled)
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
			var tables, cut int64
			for _, o := range rows {
				items += o.Items
				dense += o.Dense
				tables += o.ItemsBytes
				cut += o.ClosedItemsBytes
			}
			if items == 0 || dense == 0 || cut == 0 || cut == tables || rows[0].Pooled == 0 {
				t.Fatalf("F2: %d items-form and %d dense buckets, %d of %d table bytes in closed buckets, %d bytes pooled; the stream should leave some of each",
					items, dense, cut, tables, rows[0].Pooled)
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
		got := restored.Occupancy()
		got[0].Pooled = rows[0].Pooled // the lists are the maker's history, not the summary's state
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("%s: restored summary occupies\n%+v\nlive\n%+v", name, got, rows)
		}
	}
}

// TestOccupancyBytesPerCounter guards what a tenant of corrdbench's
// tenants-restart workload holds — the daemon's configuration, 75 000 zipf
// tuples in 256-tuple batches, nearly all of it items tables — at under 2.3
// bytes behind each counter of Space; it reads 2.22. Identifiers and weights
// there fit four-byte slots and closed buckets' tables are cut to fit; at
// eight bytes a slot the ratio was 3.73, with every table hashed 5.3, and at
// sixteen bytes a slot 9.7. It is a function of the summary's state, so it
// repeats exactly.
func TestOccupancyBytesPerCounter(t *testing.T) {
	s := mustSummary(t, F2Aggregate(), Config{
		Eps: 0.15, Delta: 0.1, YMax: 1_000_000, MaxStreamLen: 1 << 24, MaxX: 500_001, Seed: 42,
	})
	stream := gen.Zipf(75_000, 100_001, 1_000_001, 1, 7)
	var tuples []Tuple
	for tu, ok := stream.Next(); ok; tu, ok = stream.Next() {
		tuples = append(tuples, Tuple{X: tu.X, Y: tu.Y, W: 1})
	}
	for len(tuples) > 0 {
		n := min(256, len(tuples))
		if err := s.AddBatch(tuples[:n]); err != nil {
			t.Fatal(err)
		}
		tuples = tuples[n:]
	}
	var counters, held, shares int64
	items := 0
	for _, o := range s.Occupancy() {
		counters += o.Counters
		held += o.Bytes
		shares += o.ItemsBytes + o.DenseBytes
		items += o.Items
	}
	if counters != s.Space() || shares > held {
		t.Fatalf("rows hold %d counters in %d bytes, %d of them sketches'; Space %d", counters, held, shares, s.Space())
	}
	if ratio := float64(held) / float64(counters); items < 1000 || ratio >= 2.3 {
		t.Fatalf("%d bytes behind %d counters, %.2f each, over %d items-form sketches; want under 2.3", held, counters, ratio, items)
	}
}
