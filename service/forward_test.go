package service

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/wal"
)

// forwardRig is one site forwarding its log to one coordinator through a
// proxy that the test can take down (forwards get 503) or have fail the next
// forward once (fault); the coordinator behind the proxy can be replaced.
// acked counts the tuples the site acknowledged, per tenant.
type forwardRig struct {
	t       *testing.T
	coord   atomic.Pointer[Server]
	down    atomic.Bool
	fault   atomic.Pointer[func(http.ResponseWriter, *http.Request)]
	proxy   *httptest.Server
	siteCfg Config
	site    *Server
	siteTS  *httptest.Server
	acked   map[string]int
}

func newForwardRig(t *testing.T, coord *Server, siteCfg Config) *forwardRig {
	rig := &forwardRig{t: t, acked: map[string]int{}}
	rig.coord.Store(coord)
	rig.proxy = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f := rig.fault.Load(); r.URL.Path == "/v1/forward" && f != nil && rig.fault.CompareAndSwap(f, nil) {
			(*f)(w, r)
		} else if r.URL.Path == "/v1/forward" && rig.down.Load() {
			http.Error(w, "coordinator down", http.StatusServiceUnavailable)
		} else {
			rig.coord.Load().Handler().ServeHTTP(w, r)
		}
	}))
	rig.siteCfg = siteCfg
	rig.siteCfg.PushTo = rig.proxy.URL
	rig.restartSite()
	t.Cleanup(func() {
		rig.siteTS.Close()
		rig.site.Close()
		rig.proxy.Close()
		rig.coord.Load().Close()
	})
	return rig
}

// restartSite starts the site from its log and snapshot.
func (rig *forwardRig) restartSite() {
	site, err := New(rig.siteCfg)
	if err != nil {
		rig.t.Fatal(err)
	}
	rig.site, rig.siteTS = site, httptest.NewServer(site.Handler())
}

// ingest has the site acknowledge batches of tuples, one request a batch.
func (rig *forwardRig) ingest(tenant string, batches, size int, seed uint64) {
	cl := client.New(rig.siteTS.URL, client.WithTenant(tenant), client.WithRetries(0))
	for i := 0; i < batches; i++ {
		if err := cl.AddBatch(context.Background(), testStream(size, seed+uint64(i))); err != nil {
			rig.t.Fatal(err)
		}
		rig.acked[tenant] += size
	}
}

// onNextForward has the next forward applied by the coordinator, then runs
// then, and answers the site 502: it will send the record again.
func (rig *forwardRig) onNextForward(then func()) {
	f := func(w http.ResponseWriter, r *http.Request) {
		rig.coord.Load().Handler().ServeHTTP(httptest.NewRecorder(), r)
		then()
		http.Error(w, "the answer was lost", http.StatusBadGateway)
	}
	rig.fault.Store(&f)
}

// settle waits until the coordinator has confirmed everything the site's
// log holds, then holds it to the site: the same tenants, each /v1/summary
// byte for byte, and each tenant's acknowledged count of tuples.
func (rig *forwardRig) settle(when string) {
	rig.t.Helper()
	site := rig.site
	waitUntil(rig.t, 20*time.Second, when+": the forwarder catching up", func() bool {
		return site.fwd.acked.Load() >= site.walRef().LastLSN()
	})
	if n, m := len(site.tenantList()), len(rig.coord.Load().tenantList()); n != m {
		rig.t.Fatalf("%s: the site holds %d tenants, the coordinator %d", when, n, m)
	}
	for _, tn := range site.tenantList() {
		want, err1 := client.New(rig.siteTS.URL, client.WithTenant(tn.name)).Summary(context.Background())
		cl := client.New(rig.proxy.URL, client.WithTenant(tn.name))
		got, err2 := cl.Summary(context.Background())
		st, err3 := cl.Stats(context.Background())
		if err := cmp.Or(err1, err2, err3); err != nil || !bytes.Equal(got, want) || st.Count != uint64(rig.acked[tn.name]) {
			rig.t.Fatalf("%s: tenant %q: the coordinator's summary is %d bytes, the site's %d, equal %t; it holds %d tuples of %d acknowledged (err %v)",
				when, tn.name, len(got), len(want), bytes.Equal(got, want), st.Count, rig.acked[tn.name], err)
		}
	}
}

// TestForwardExactlyOnce is the follow-and-compare test of the site role.
// A site forwards its log to a coordinator; after each way forwarding can
// be cut — the coordinator unreachable, a clean drain, an answer that times
// out, the site killed, the coordinator killed, the coordinator replaced by
// its promoted replica — the coordinator's /v1/summary for every tenant
// equals the site's and holds every acknowledged tuple once. Each cut but
// the first two lands after the coordinator applied a record whose answer
// the site never heard, so the mark — kept, restored from a snapshot and a
// log, or replicated — must drop the copy sent again. While the
// coordinator is unreachable the site prunes nothing of its log; once the
// coordinator has the records it prunes, and restarts on the pruned log.
func TestForwardExactlyOnce(t *testing.T) {
	was := forwardTimeout
	forwardTimeout = 500 * time.Millisecond
	t.Cleanup(func() { forwardTimeout = was })
	coordCfg, siteCfg := walConfig(t), walConfig(t)
	siteCfg.WALSegmentBytes = 1 << 10
	coord, err := New(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := newForwardRig(t, coord, siteCfg)
	duplicates := func() uint64 { return rig.coord.Load().metrics.forwardsDuplicate.Load() }

	// Unreachable, then back: no pruning past the mark until then.
	rig.down.Store(true)
	rig.ingest("", 12, 100, 1)
	rig.ingest("a", 4, 150, 10)
	if err := rig.site.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if w := rig.site.walRef(); w.OldestLSN() != 1 {
		t.Fatalf("with nothing forwarded the site pruned to LSN %d", w.OldestLSN())
	}
	rig.down.Store(false)
	rig.settle("once the coordinator is reachable")
	if err := rig.site.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if w := rig.site.walRef(); w.OldestLSN() == 1 {
		t.Fatal("the site pruned nothing its coordinator had confirmed")
	}

	// A clean drain, and a restart on the pruned log.
	rig.ingest("", 2, 100, 20)
	if err := rig.site.Close(); err != nil {
		t.Fatal(err)
	}
	rig.siteTS.Close()
	rig.restartSite()
	rig.settle("after a clean drain")

	// An ambiguous timeout: the record was applied, and is sent again.
	stall := func(w http.ResponseWriter, r *http.Request) {
		rig.coord.Load().Handler().ServeHTTP(httptest.NewRecorder(), r)
		time.Sleep(2 * forwardTimeout)
	}
	rig.fault.Store(&stall)
	before := duplicates()
	rig.ingest("b", 3, 100, 30)
	rig.settle("after an ambiguous timeout")
	if duplicates() == before {
		t.Fatal("no copy was dropped after the ambiguous timeout")
	}

	// The site killed while forwarding, acknowledging more meanwhile.
	rig.onNextForward(func() { rig.down.Store(true) })
	rig.ingest("", 5, 100, 40)
	rig.ingest("a", 2, 100, 50)
	crash(rig.siteTS, rig.site)
	rig.down.Store(false)
	rig.restartSite()
	rig.settle("after the site was killed")

	// The coordinator killed while forwarding, restarted from its snapshot
	// (which carries the marks) and its log.
	if err := rig.coord.Load().Snapshot(); err != nil {
		t.Fatal(err)
	}
	rig.onNextForward(func() {
		crash(nil, rig.coord.Load())
		rig.down.Store(true)
	})
	rig.ingest("b", 4, 100, 60)
	waitUntil(t, 10*time.Second, "the coordinator to crash", rig.down.Load)
	if coord, err = New(coordCfg); err != nil {
		t.Fatal(err)
	}
	rig.coord.Store(coord)
	rig.down.Store(false)
	rig.settle("after the coordinator was killed")
	if duplicates() == 0 {
		t.Fatal("the restarted coordinator dropped no copy")
	}

	// The coordinator's replica promoted while forwarding.
	t.Cleanup(func() { coord.Close() })
	replica, _ := newReplica(t, coord.cfg.Options, startStream(t, coord), func(c *Config) {
		c.WALDir = filepath.Join(t.TempDir(), "wal")
	})
	rig.onNextForward(func() {
		for deadline := time.Now().Add(10 * time.Second); replica.appliedLSN.Load() < coord.walRef().LastLSN() && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		if err := replica.Promote(); err != nil {
			t.Error(err)
		}
		rig.coord.Store(replica)
	})
	rig.ingest("", 3, 100, 70)
	rig.ingest("c", 3, 100, 80)
	rig.settle("after the replica was promoted")
	if duplicates() == 0 {
		t.Fatal("the promoted replica dropped no copy: its marks did not come through replication")
	}
}

// TestForwardAdmissionAndDuplicates: the coordinator's decide step. A
// forward whose first new record names tenants past MaxTenants is refused
// whole, moving no mark; two copies of one forward in one commit group apply
// once; a forward is admitted up to the record the cap refuses, its answer's
// mark says where to send from again, and from there the refusal names that
// record and its tenant; a forward at or below the mark is answered with the
// mark. (And a site needs a log.)
func TestForwardAdmissionAndDuplicates(t *testing.T) {
	if _, err := New(Config{Options: testOptions(), PushTo: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("a site without a WALDir was built")
	}
	coord, ts, _ := newTestServer(t, Config{Options: testOptions(), MaxTenants: 2})
	// body is a forward of records first, first+1, …, each writing 20
	// tuples to each tenant its string names, one letter a tenant.
	body := func(first uint64, records ...string) (b []byte) {
		for i, keys := range records {
			b = client.AppendForwardRecord(b, first+uint64(i), uint8(wal.RecordIngest), ingestRecord(t, strings.Split(keys, "")...))
		}
		return b
	}
	job := func(b []byte) *ingestJob {
		return &ingestJob{op: opForward, site: 0xabc, image: b, done: make(chan struct{}, 1)}
	}
	count := func() uint64 { return coord.tenantByName("x").eng.Count() }
	if j := job(body(1, "xy")); coord.commit(j) == nil || j.kind != ingestErrTenant || coord.tenantByName("x") != nil || coord.marks[0xabc] != 0 {
		t.Fatalf("a forward naming two tenants past the cap: kind %d, tenant x made %t, mark %d", j.kind, coord.tenantByName("x") != nil, coord.marks[0xabc])
	}
	a, b := job(body(2, "x")), job(body(2, "x"))
	if err := cmp.Or(coord.validateForward(a), coord.validateForward(b)); err != nil {
		t.Fatal(err)
	}
	coord.commitGroup([]*ingestJob{a, b})
	if a.kind != ingestOK || b.kind != ingestOK || a.tn == nil || b.tn != nil || count() != 20 {
		t.Fatalf("two copies in one group: kinds %d, %d, applied %t, %t; want both acknowledged, one applied", a.kind, b.kind, a.tn != nil, b.tn != nil)
	}
	cl, ctx := client.New(ts.URL, client.WithRetries(0)), context.Background()
	if mark, err := cl.Forward(ctx, 0xabc, body(3, "x", "z", "x")); err != nil || mark != 3 || count() != 40 {
		t.Fatalf("a forward whose second record names a tenant past the cap: mark %d (err %v), tenant x holds %d tuples; want 3 and 40", mark, err, count())
	}
	if _, err := cl.Forward(ctx, 0xabc, body(4, "z", "x")); !client.IsTenantRejected(err) || !strings.Contains(err.Error(), `record 4, tenant "z"`) {
		t.Fatalf("the forward from the refused record: %v; want a tenant refusal naming record 4 and tenant z", err)
	}
	if mark, err := cl.Forward(ctx, 0xabc, body(1, "x")); err != nil || mark != 3 || count() != 40 {
		t.Fatalf("a forward below the mark: mark %d (err %v), tenant x holds %d tuples; want 3 and 40", mark, err, count())
	}
}

// TestForwardRefusalIsReported: a record the coordinator refuses for good,
// here one that would make a tenant past its MaxTenants, holds back the
// records behind it, and the site says so: /v1/stats names the record, the
// tenant and how far the coordinator has confirmed, the refused series counts
// it, and the site's checkpoint keeps the log from there on.
func TestForwardRefusalIsReported(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	coord, err := New(Config{Options: testOptions(), MaxTenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	siteCfg := walConfig(t)
	siteCfg.WALSegmentBytes = 1 << 10
	rig := newForwardRig(t, coord, siteCfg)
	rig.ingest("a", 4, 100, 1)
	rig.settle("below the cap")
	rig.ingest("b", 1, 100, 5)
	refused := rig.site.walRef().LastLSN()
	rig.ingest("a", 4, 100, 6)
	var st client.Stats
	waitUntil(t, 10*time.Second, "the site to report the refusal", func() bool {
		st, err = client.New(rig.siteTS.URL).Stats(context.Background())
		return err == nil && st.ForwardStalled != ""
	})
	if want := fmt.Sprintf(`record %d, tenant "b"`, refused); !strings.Contains(st.ForwardStalled, want) || st.ForwardAckedLSN != refused-1 || rig.site.metrics.siteForwardsRefused.Load() == 0 {
		t.Fatalf("the site reports %q, confirmed to LSN %d, %d refusals; want %s, LSN %d, at least one", st.ForwardStalled, st.ForwardAckedLSN, rig.site.metrics.siteForwardsRefused.Load(), want, refused-1)
	}
	if err := rig.site.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if oldest := rig.site.walRef().OldestLSN(); oldest > refused {
		t.Fatalf("the site pruned its log to LSN %d, past the refused record %d", oldest, refused)
	}
}

// TestSiteRefusesUnsentState: a server with no site id yet whose state its
// log does not hold — restored from a snapshot, on a log a checkpoint pruned
// — would never send that state under a new id, so New refuses to make it a
// site and names the migration.
func TestSiteRefusesUnsentState(t *testing.T) {
	cfg := walConfig(t)
	cfg.WALSegmentBytes = 1 << 10
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := svc.commit(&ingestJob{tuples: testStream(100, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cmp.Or(svc.Snapshot(), svc.Close()); err != nil {
		t.Fatal(err)
	}
	cfg.PushTo = "http://127.0.0.1:1"
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), `README "Storage format"`) {
		t.Fatalf("a pruned, restored server became a site under a new id: %v", err)
	}
}

// ingestRecord is an ingest record's payload as a site logs it: 20 tuples
// for each tenant named.
func ingestRecord(t testing.TB, keys ...string) []byte {
	var batches []tenantBatch
	for i, k := range keys {
		rows := testStream(20, uint64(i+1))
		slices.SortFunc(rows, func(a, b correlated.Tuple) int { return cmp.Compare(a.Y, b.Y) })
		batches = append(batches, tenantBatch{key: []byte(k), tuples: rows})
	}
	payload, err := appendIngest(nil, batches)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestForwardWithinEps: sites that forward their logs leave the
// coordinator one summary per tenant, so it answers within ε of the exact
// aggregate however many sites fed it, where merging their delta images
// does not (TestMergeRoundsAccuracy). The merge-rounds fixture on corrd's
// options: S ∈ {1, 4} sites take the stream round-robin, each in at least
// 64 batches; F2 over uniform and zipf identifiers and COUNT, six cutoffs.
func TestForwardWithinEps(t *testing.T) {
	n := 200_000
	if testing.Short() || raceEnabled {
		n = 40_000
	}
	opts := correlated.Options{Eps: 0.15, Delta: 0.1, YMax: 999_999, MaxX: 500_001, MaxStreamLen: 1 << 24, Seed: 42, Predicate: correlated.Both}
	for _, tc := range []struct {
		agg  string
		zipf bool
	}{{"f2", false}, {"f2", true}, {"count", false}} {
		// The fixture's stream: a xorshift seeded with 7; x uniform over
		// 500 001 identifiers or zipf as ⌊500 001^u⌋ − 1; y uniform over
		// [0, 10^6).
		ts, s, truth := make([]correlated.Tuple, n), uint64(7), exact.New()
		next := func() uint64 { s ^= s << 13; s ^= s >> 7; s ^= s << 17; return s }
		for i := range ts {
			r := next()
			x := r % 500_001
			if tc.zipf {
				x = uint64(math.Pow(500_001, float64(r>>11)/(1<<53))) - 1
			}
			ts[i] = correlated.Tuple{X: x, Y: next() % 1_000_000, W: 1}
			truth.Add(ts[i].X, ts[i].Y)
		}
		want := map[string]func(uint64) float64{"f2": truth.F2, "count": truth.Count1}[tc.agg]
		for _, sites := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/zipf=%t/S=%d", tc.agg, tc.zipf, sites), func(t *testing.T) {
				coord, coordTS, coordCl := newTestServer(t, Config{Options: opts, Aggregate: tc.agg})
				for i := 0; i < sites; i++ {
					var share []correlated.Tuple
					for j := i; j < len(ts); j += sites {
						share = append(share, ts[j])
					}
					site, err := New(Config{Options: opts, Aggregate: tc.agg, WALDir: t.TempDir(), PushTo: coordTS.URL})
					if err != nil {
						t.Fatal(err)
					}
					siteTS := httptest.NewServer(site.Handler())
					err = client.New(siteTS.URL, client.WithChunkSize(len(share)/64)).AddBatch(context.Background(), share)
					siteTS.Close()
					if err = cmp.Or(err, site.Close()); err != nil {
						t.Fatal(err)
					}
				}
				st, err := coordCl.Stats(context.Background())
				if applied := coord.metrics.forwardsApplied.Load(); err != nil || st.Count != uint64(n) || st.PushesMerged != 0 || applied < uint64(64*sites) {
					t.Fatalf("coordinator: %d tuples, %d pushes merged, %d forwards applied (err %v); want %d, 0, at least %d",
						st.Count, st.PushesMerged, applied, err, n, 64*sites)
				}
				worst := 0.0
				for _, c := range []uint64{1_000, 10_000, 100_000, 300_000, 600_000, 999_999} {
					got, err := coordCl.QueryLE(context.Background(), c)
					if err != nil {
						t.Fatalf("QueryLE(%d): %v", c, err)
					}
					worst = math.Max(worst, math.Abs(got-want(c))/want(c))
				}
				t.Logf("largest relative error %.3f (ε = %.2f)", worst, opts.Eps)
				if worst > opts.Eps {
					t.Fatalf("largest relative error %.3f > ε", worst)
				}
			})
		}
	}
}
