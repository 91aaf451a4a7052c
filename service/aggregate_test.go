package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/exact"
)

// TestServesEveryAggregate: the daemon serves each aggregate Config offers
// exactly as the library summary of that type would. What is under test is
// the wiring (Aggregate and K to a constructor, and that engine through
// ingest, query, push, the log and replay), not accuracy: the same seeded
// batches, cut the same way, go over HTTP into the default and a keyed
// tenant and into in-process summaries built straight from the library
// constructors, and bytes and answers must be equal. COUNT and SUM are
// exact while the singleton level serves (testStream stays under Alpha
// distinct y values), which tells the two apart from each other.
func TestServesEveryAggregate(t *testing.T) {
	o := testOptions()
	cutoffs := []uint64{0, 1, 17, 75, 150, distinctY - 1, distinctY, o.YMax}
	cases := []struct {
		agg   string
		k     int
		build func() (Engine, error)
		exact func(b *exact.Baseline, c uint64) float64 // nil: approximate
	}{
		{"f2", 0, func() (Engine, error) { return correlated.NewF2Summary(o) }, nil},
		{"fk", 3, func() (Engine, error) { return correlated.NewFkSummary(3, o) }, nil},
		{"count", 0, func() (Engine, error) { return correlated.NewCountSummary(o) }, (*exact.Baseline).Count1},
		{"sum", 0, func() (Engine, error) { return correlated.NewSumSummary(o) }, (*exact.Baseline).Sum},
	}
	for _, tc := range cases {
		t.Run(tc.agg, func(t *testing.T) {
			ctx := context.Background()
			cfg := Config{
				Aggregate: tc.agg, K: tc.k, Options: o,
				WALDir: filepath.Join(t.TempDir(), "wal"), WALFsync: "always",
			}
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(svc.Handler())
			tenants := []string{"", "keyed"}
			refs := make(map[string]Engine)
			base := exact.New()
			for _, name := range tenants {
				if refs[name], err = tc.build(); err != nil {
					t.Fatal(err)
				}
			}
			for seed := uint64(1); seed <= 3; seed++ {
				batch := testStream(1_200, seed)
				for _, name := range tenants {
					// One request per batch: the request is the cut.
					cl := client.New(ts.URL, client.WithTenant(name), client.WithChunkSize(len(batch)))
					if err := cl.AddBatch(ctx, batch); err != nil {
						t.Fatal(err)
					}
					if err := refs[name].AddBatch(append([]correlated.Tuple(nil), batch...)); err != nil {
						t.Fatal(err)
					}
				}
				for _, tu := range batch {
					base.AddWeighted(tu.X, tu.Y, tu.W)
				}
			}
			check := func(url, when string) {
				t.Helper()
				for _, name := range tenants {
					want, err := refs[name].MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(tenantSummary(t, url, name), want) {
						t.Fatalf("%s: tenant %q summary differs from the in-process %s summary", when, name, tc.agg)
					}
					cl := client.New(url, client.WithTenant(name))
					for _, c := range cutoffs {
						wantLE, err := refs[name].QueryLE(c)
						if err != nil {
							t.Fatal(err)
						}
						wantGE, err := refs[name].QueryGE(c)
						if err != nil {
							t.Fatal(err)
						}
						gotLE, err := cl.QueryLE(ctx, c)
						if err != nil {
							t.Fatal(err)
						}
						gotGE, err := cl.QueryGE(ctx, c)
						if err != nil {
							t.Fatal(err)
						}
						if gotLE != wantLE || gotGE != wantGE {
							t.Fatalf("%s: tenant %q cutoff %d: le %v ge %v over HTTP, %v and %v in process",
								when, name, c, gotLE, gotGE, wantLE, wantGE)
						}
					}
				}
			}
			check(ts.URL, "after ingest")
			if tc.exact != nil {
				total := tc.exact(base, o.YMax)
				for _, c := range cutoffs {
					le, _ := refs[""].QueryLE(c)
					ge, _ := refs[""].QueryGE(c)
					wantGE := total
					if c > 0 {
						wantGE -= tc.exact(base, c-1)
					}
					if le != tc.exact(base, c) || ge != wantGE {
						t.Fatalf("cutoff %d: %s answers le %v ge %v, exact is %v and %v",
							c, tc.agg, le, ge, tc.exact(base, c), wantGE)
					}
				}
			}
			st, err := client.New(ts.URL).Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Aggregate != tc.agg {
				t.Fatalf("/v1/stats names aggregate %q, want %q", st.Aggregate, tc.agg)
			}

			// A second server's image, pushed into the default tenant, merges.
			_, ts2, cl2 := newTestServer(t, Config{Aggregate: tc.agg, K: tc.k, Options: o})
			if err := cl2.AddBatch(ctx, testStream(900, 9)); err != nil {
				t.Fatal(err)
			}
			img := tenantSummary(t, ts2.URL, "")
			if err := client.New(ts.URL).Push(ctx, img); err != nil {
				t.Fatal(err)
			}
			if err := refs[""].MergeMarshaled(img); err != nil {
				t.Fatal(err)
			}
			check(ts.URL, "after a push")

			// Killed and restarted on the log alone: byte-identical.
			crash(ts, svc)
			svc, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts = httptest.NewServer(svc.Handler())
			defer func() {
				ts.Close()
				svc.Close()
			}()
			check(ts.URL, "after crash and replay")
		})
	}

	// The two refusals: New fails before it has opened or started anything.
	for name, cfg := range map[string]Config{
		"fk below order 2": {Aggregate: "fk", K: 1},
		"unknown name":     {Aggregate: "median"},
	} {
		cfg.Options = o
		cfg.WALDir = filepath.Join(t.TempDir(), "wal")
		svc, err := New(cfg)
		if err == nil {
			svc.Close()
			t.Fatalf("%s: New accepted %+v", name, cfg)
		}
		if svc != nil {
			t.Errorf("%s: New failed yet returned a server", name)
		}
		if _, serr := os.Stat(cfg.WALDir); !os.IsNotExist(serr) {
			t.Errorf("%s: New failed yet left a wal directory behind (stat: %v)", name, serr)
		}
	}
}
