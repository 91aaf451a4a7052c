package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/hash"
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

// TestFkTieOrderThroughTheLog pins the one order the log must not lose. An
// Fk summary's bounded candidate sets evict by arrival order, so its bytes
// depend on the order inside an equal-y run of a batch — the order the
// summary's own sort (core.SortByY) leaves, which the committer applies to
// each tenant's concatenated members before AddBatch and the record keeps.
// An -agg fk server takes commit groups of several members for the same
// tenant, few distinct y and weights other than 1; its /v1/summary must
// equal an in-process Fk summary fed the same concatenations in client
// order, a follower's after promotion, and its own after crash and replay.
// A committer that sorted any other way — a (y, x, w) total order, a stable
// sort — fails the first comparison.
func TestFkTieOrderThroughTheLog(t *testing.T) {
	o := testOptions()
	cfg := Config{
		Aggregate: "fk", K: 3, Options: o,
		WALDir: filepath.Join(t.TempDir(), "wal"), WALFsync: "always",
		HeartbeatInterval: 20 * time.Millisecond,
	}
	svc, ts, _ := newTestServer(t, cfg)
	replicaSvc, rts := newReplica(t, o, startStream(t, svc), func(c *Config) {
		c.Aggregate, c.K = cfg.Aggregate, cfg.K
		c.WALDir, c.WALFsync = filepath.Join(t.TempDir(), "wal"), "always"
	})

	tenants := []string{"", "keyed"}
	refs := map[string]*correlated.FkSummary{}
	for _, name := range tenants {
		ref, err := correlated.NewFkSummary(cfg.K, o)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = ref
	}
	rng := hash.New(23)
	for g := 0; g < 6; g++ {
		var group []*ingestJob
		concat := map[string][]correlated.Tuple{}
		for m := 0; m < 5; m++ {
			name := tenants[rng.Uint64n(2)]
			tuples := make([]correlated.Tuple, 150+rng.Uint64n(200))
			for i := range tuples {
				tuples[i] = correlated.Tuple{X: rng.Uint64n(1 << 12), Y: rng.Uint64n(5) * 40, W: int64(1 + rng.Uint64n(6))}
			}
			group = append(group, &ingestJob{key: []byte(name), tuples: tuples, done: make(chan struct{}, 1)})
			concat[name] = append(concat[name], tuples...)
		}
		svc.commitGroup(group)
		for i, j := range group {
			if <-j.done; j.kind != ingestOK {
				t.Fatalf("group %d member %d: kind %d, err %v", g, i, j.kind, j.err)
			}
		}
		for name, batch := range concat {
			if err := refs[name].AddBatch(batch); err != nil {
				t.Fatal(err)
			}
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
				t.Fatalf("%s: tenant %q differs from an in-process Fk summary fed the same batches in client order", when, name)
			}
		}
	}
	check(ts.URL, "live")

	waitUntil(t, 10*time.Second, "the replica to apply the log", func() bool {
		return replicaSvc.appliedLSN.Load() >= svc.walRef().LastLSN()
	})
	if err := replicaSvc.Promote(); err != nil {
		t.Fatal(err)
	}
	check(rts.URL, "promoted follower")

	crash(ts, svc)
	svc2, ts2, _ := newTestServer(t, cfg)
	if svc2.walReplayed == 0 {
		t.Fatal("the restart replayed nothing")
	}
	check(ts2.URL, "after crash and replay")
}
