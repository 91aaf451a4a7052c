package service

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/wal"
)

// target is a server behind a proxy that the test can take down (forwards
// get 503) or have fail the next forward once (fault); the server behind
// it can be replaced.
type target struct {
	coord atomic.Pointer[Server]
	down  atomic.Bool
	fault atomic.Pointer[func(http.ResponseWriter, *http.Request)]
	proxy *httptest.Server
}

func newTarget(t *testing.T, svc *Server) *target {
	tg := &target{}
	tg.coord.Store(svc)
	tg.proxy = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f := tg.fault.Load(); r.URL.Path == "/v1/forward" && f != nil && tg.fault.CompareAndSwap(f, nil) {
			(*f)(w, r)
		} else if r.URL.Path == "/v1/forward" && tg.down.Load() {
			http.Error(w, "coordinator down", http.StatusServiceUnavailable)
		} else {
			tg.coord.Load().Handler().ServeHTTP(w, r)
		}
	}))
	t.Cleanup(func() {
		tg.proxy.Close()
		tg.coord.Load().Close()
	})
	return tg
}

// forwardRig is one site forwarding its log to one coordinator, its
// target, and to any more targets. acked counts the tuples the site
// acknowledged, per tenant.
type forwardRig struct {
	*target
	t       *testing.T
	siteCfg Config
	site    *Server
	siteTS  *httptest.Server
	acked   map[string]int
}

func newForwardRig(t *testing.T, coord *Server, siteCfg Config, more ...*target) *forwardRig {
	rig := &forwardRig{target: newTarget(t, coord), t: t, siteCfg: siteCfg, acked: map[string]int{}}
	rig.siteCfg.PushTo = rig.proxy.URL
	for _, tg := range more {
		rig.siteCfg.PushTo += "," + tg.proxy.URL
	}
	rig.restartSite()
	t.Cleanup(func() {
		rig.siteTS.Close()
		rig.site.Close()
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

// onNextForward has the next forward applied by the target's server,
// then runs then, and answers the site 502: it will send the record again.
func (tg *target) onNextForward(then func()) {
	f := func(w http.ResponseWriter, r *http.Request) {
		tg.coord.Load().Handler().ServeHTTP(httptest.NewRecorder(), r)
		then()
		http.Error(w, "the answer was lost", http.StatusBadGateway)
	}
	tg.fault.Store(&f)
}

// settle waits until every target has confirmed everything the site's log
// holds, then holds the coordinator to the site: the same tenants, each
// /v1/summary byte for byte, and each tenant's acknowledged count of
// tuples.
func (rig *forwardRig) settle(when string) {
	rig.t.Helper()
	caughtUp(rig.t, when, rig.site)
	site := rig.site
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
// its promoted standby, caught up or lagging — the coordinator's /v1/summary for every tenant
// equals the site's and holds every acknowledged tuple once. Each cut but
// the first two lands after the coordinator applied a record whose answer
// the site never heard, so the mark — kept, restored from a snapshot and a
// log, or forwarded nested in the coordinator's records — must drop the
// copy sent again. While the
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
	// The second snapshot would prune to the first's coverage but for the
	// mark.
	if err := cmp.Or(rig.site.Snapshot(), rig.site.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if w := rig.site.wal; w.OldestLSN() != 1 {
		t.Fatalf("with nothing forwarded the site pruned to LSN %d", w.OldestLSN())
	}
	rig.down.Store(false)
	rig.settle("once the coordinator is reachable")
	if err := rig.site.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if w := rig.site.wal; w.OldestLSN() == 1 {
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
	standby, standbyTS := newStandby(t, coordCfg.Options, nil) // it comes back forwarding to a standby
	coordCfg.PushTo = standbyTS.URL
	if coord, err = New(coordCfg); err != nil {
		t.Fatal(err)
	}
	rig.coord.Store(coord)
	rig.down.Store(false)
	rig.settle("after the coordinator was killed")
	if duplicates() == 0 {
		t.Fatal("the restarted coordinator dropped no copy")
	}

	// The coordinator's standby promoted while forwarding: it holds the
	// site's records nested in the coordinator's, and their marks with them.
	t.Cleanup(func() { coord.Close() })
	rig.onNextForward(func() {
		for deadline := time.Now().Add(10 * time.Second); coord.fwds[0].acked.Load() < coord.wal.LastLSN() && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		if err := standby.Promote(); err != nil {
			t.Error(err)
		}
		rig.coord.Store(standby)
	})
	rig.ingest("", 3, 100, 70)
	rig.ingest("c", 3, 100, 80)
	rig.settle("after the standby was promoted")
	if duplicates() == 0 {
		t.Fatal("the promoted standby dropped no copy: the marks did not come nested in its primary's forwards")
	}

	// A lagging standby promoted: a second site's coordinator lost the link
	// to its standby, went on confirming the site's records, and was lost
	// itself; the standby, behind by those records, is promoted and the site
	// re-pointed to it. The site's forwards name a record past the standby's
	// mark, the standby refuses the gap with its mark, and the site, whose
	// log still holds everything since, sends again from there.
	sb, err := New(Config{Options: coordCfg.Options, Standby: true, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lagging := newTarget(t, sb)
	primaryCfg := walConfig(t)
	primaryCfg.PushTo = lagging.proxy.URL
	primary, err := New(primaryCfg)
	if err != nil {
		t.Fatal(err)
	}
	rig2 := newForwardRig(t, primary, walConfig(t))
	rig2.ingest("", 3, 100, 90)
	rig2.ingest("d", 2, 100, 95)
	rig2.settle("before the standby lagged")
	caughtUp(t, "before the standby lagged", primary)
	lagging.down.Store(true)
	rig2.ingest("", 4, 100, 100)
	rig2.ingest("d", 3, 100, 105)
	rig2.settle("with the standby cut off")
	crash(nil, primary)
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	gaps := sb.metrics.forwardsRejected.Load()
	lagging.down.Store(false)
	rig2.coord.Store(sb)
	rig2.ingest("d", 2, 100, 110)
	rig2.settle("after a lagging standby was promoted")
	if sb.metrics.forwardsRejected.Load() == gaps {
		t.Fatal("the promoted standby refused no forward across the records it lacked")
	}
}

// TestForwardAdmissionAndDuplicates: the coordinator's decide step. A
// forward whose first new record names tenants past MaxTenants is refused
// whole, moving no mark; two copies of one forward in one commit group apply
// once; a forward is admitted up to the record the cap refuses, its answer's
// mark says where to send from again, and from there the refusal names that
// record and its tenant; a forward at or below the mark is answered with the
// mark; a forward in another log format is refused by name.
func TestForwardAdmissionAndDuplicates(t *testing.T) {
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
	if mark, err := cl.Forward(ctx, 0xabc, wal.Version, 0, body(3, "x", "z", "x")); err != nil || mark != 3 || count() != 40 {
		t.Fatalf("a forward whose second record names a tenant past the cap: mark %d (err %v), tenant x holds %d tuples; want 3 and 40", mark, err, count())
	}
	if _, err := cl.Forward(ctx, 0xabc, wal.Version, 0, body(4, "z", "x")); !client.IsTenantRejected(err) || !strings.Contains(err.Error(), `record 4, tenant "z"`) {
		t.Fatalf("the forward from the refused record: %v; want a tenant refusal naming record 4 and tenant z", err)
	}
	if mark, err := cl.Forward(ctx, 0xabc, wal.Version, 0, body(1, "x")); err != nil || mark != 3 || count() != 40 {
		t.Fatalf("a forward below the mark: mark %d (err %v), tenant x holds %d tuples; want 3 and 40", mark, err, count())
	}
	// A site of another release: its records are in another log format,
	// refused by name before anything is decoded.
	var ae *client.APIError
	_, err := cl.Forward(ctx, 0xabc, wal.Version-1, 0, body(4, "x"))
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || count() != 40 || coord.marks[0xabc] != 3 ||
		!strings.Contains(err.Error(), fmt.Sprintf(`log format "%d"`, wal.Version-1)) || !strings.Contains(err.Error(), fmt.Sprintf("log format %d", wal.Version)) {
		t.Fatalf("a forward in log format %d: %v; want a 400 naming both formats, nothing applied", wal.Version-1, err)
	}
}

// TestForwardRefusalIsReported: a record the coordinator refuses for good,
// here one that would make a tenant past its MaxTenants, holds back the
// records behind it, and the site says so: /v1/stats names the record, the
// tenant and how far the coordinator has confirmed, the refused series counts
// it, and the site's checkpoint keeps the log from there on. It arrives
// behind a record the coordinator takes, in one forward.
func TestForwardRefusalIsReported(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	coord, err := New(Config{Options: testOptions(), WALDir: t.TempDir(), MaxTenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	siteCfg := walConfig(t)
	siteCfg.WALSegmentBytes = 1 << 10
	rig := newForwardRig(t, coord, siteCfg)
	rig.ingest("a", 4, 100, 1)
	rig.settle("below the cap")
	// One forward carries a record the coordinator takes ahead of the one
	// it refuses: it admits that prefix, and the site follows from its mark.
	rig.down.Store(true)
	rig.ingest("a", 1, 100, 5)
	rig.ingest("b", 1, 100, 6)
	refused := rig.site.wal.LastLSN()
	rig.ingest("a", 4, 100, 7)
	rig.down.Store(false)
	var st client.Stats
	waitUntil(t, 10*time.Second, "the site to report the refusal", func() bool {
		st, err = client.New(rig.siteTS.URL).Stats(context.Background())
		return err == nil && st.ForwardStalled != ""
	})
	if want := fmt.Sprintf(`record %d, tenant "b"`, refused); !strings.Contains(st.ForwardStalled, want) || st.ForwardAckedLSN != refused-1 || rig.site.metrics.siteForwardsRefused.Load() == 0 {
		t.Fatalf("the site reports %q, confirmed to LSN %d, %d refusals; want %s, LSN %d, at least one", st.ForwardStalled, st.ForwardAckedLSN, rig.site.metrics.siteForwardsRefused.Load(), want, refused-1)
	}
	// The second checkpoint would prune to the first's coverage but for
	// the mark.
	if err := cmp.Or(rig.site.Snapshot(), rig.site.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if oldest := rig.site.wal.OldestLSN(); oldest > refused {
		t.Fatalf("the site pruned its log to LSN %d, past the refused record %d", oldest, refused)
	}
}

// TestForwardSplitsForASmallBodyCap: a coordinator whose body cap is below
// what a site gathers answers a forward 413, and the site sends half as
// many records until one fits, so the coordinator ends byte-equal to the
// site. Only a record past the cap on its own is reported as a stall.
func TestForwardSplitsForASmallBodyCap(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	coord, err := New(Config{Options: testOptions(), WALDir: t.TempDir(), MaxBodyBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rig := newForwardRig(t, coord, walConfig(t))
	rig.down.Store(true)
	rig.ingest("", 60, 1000, 1) // some 160 KB of records in all, past the cap by far
	rig.ingest("a", 20, 1000, 100)
	rig.down.Store(false)
	rig.settle("the backlog sent in parts")
	if refused := rig.site.metrics.siteForwardsRefused.Load(); refused != 0 {
		t.Fatalf("the site counted %d refusals; a forward too large for the coordinator is split, not refused", refused)
	}

	if err := rig.site.commit(ingestOf("", testStream(40000, 7))); err != nil {
		t.Fatal(err)
	}
	var st client.Stats
	waitUntil(t, 10*time.Second, "the site to report the record past the cap", func() bool {
		st, err = client.New(rig.siteTS.URL).Stats(context.Background())
		return err == nil && st.ForwardStalled != ""
	})
	if !strings.Contains(st.ForwardStalled, "HTTP 413") {
		t.Fatalf("the site reports %q; want the coordinator's 413", st.ForwardStalled)
	}
}

// TestForwardTupleCap: a forward's records decode to at most
// maxForwardTuples tuples together. A row at (0, 0) takes two bits, so a
// short body can claim many tuples: a forward past the cap is refused as
// too large — the 413 a site answers by sending fewer records — after
// admission allocated no more than the cap's tuples, and nothing is
// applied; a forward within the cap is.
func TestForwardTupleCap(t *testing.T) {
	was := maxForwardTuples
	maxForwardTuples = 1 << 18
	t.Cleanup(func() { maxForwardTuples = was })
	coord, _, cl := newTestServer(t, Config{Options: testOptions()})
	zeros, err := appendIngest(nil, []tenantBatch{{key: []byte("z"), tuples: make([]correlated.Tuple, 100000)}})
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	for lsn := uint64(1); lsn <= 10; lsn++ {
		body = client.AppendForwardRecord(body, lsn, uint8(wal.RecordIngest), zeros)
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = cl.Forward(ctx, 0xabc, wal.Version, 0, body)
	runtime.ReadMemStats(&after)
	var ae *client.APIError
	if !client.IsTooLarge(err) || !errors.As(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge || coord.tenantByName("z") != nil {
		t.Fatalf("a %d-byte forward of a million tuples: %v, tenant made %t; want a 413 naming %q, nothing applied", len(body), err, coord.tenantByName("z") != nil, client.CodeTooLarge)
	}
	most := maxForwardTuples*uint64(unsafe.Sizeof(correlated.Tuple{})) + 1<<19
	if got := after.TotalAlloc - before.TotalAlloc; got > most {
		t.Fatalf("refusing a %d-byte forward allocated %d bytes; the cap allows %d", len(body), got, most)
	}
	within := body[:len(body)/5] // the first two records
	if mark, err := cl.Forward(ctx, 0xabc, wal.Version, 0, within); err != nil || mark != 2 || coord.tenantByName("z").eng.Count() != 200000 {
		t.Fatalf("a forward of 200 000 tuples: mark %d (err %v); want 2, applied", mark, err)
	}
}

// TestSiteRefusesUnsentState: a server with no site id yet whose state its
// log does not hold would never send that state under a new id. On a
// snapshot that covers LSN 0 — one an earlier release wrote with no log —
// New refuses by name. On a log a checkpoint
// pruned, it forwards nothing: /v1/stats names the coordinator's mark
// behind the log's oldest record and the way out, until the coordinator is
// started on a copy of the site's snapshot, which carries the new id's mark
// at its coverage. From there the coordinator holds what the site does.
func TestSiteRefusesUnsentState(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	// A snapshot that covers LSN 0 holds state in no record, and a new log
	// starts at LSN 1, so no mark could show it.
	eng, err := newEngine(&Config{Options: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddBatch(testStream(100, 1)); err != nil {
		t.Fatal(err)
	}
	img, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bare := walConfig(t)
	bare.PushTo = "http://127.0.0.1:1"
	bare.WALDir = stateWith(t, encodeSnapshot(0, []tenantImage{{image: img}}, nil))
	if svc, err := New(bare); err == nil {
		svc.Close()
		t.Fatal("a site minted an id on a snapshot that covers LSN 0")
	} else if !strings.Contains(err.Error(), "the restored snapshot covers LSN 0") {
		t.Fatal(err)
	}

	cfg := walConfig(t)
	cfg.WALSegmentBytes = 1 << 10
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := svc.commit(ingestOf("", testStream(100, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cmp.Or(svc.Snapshot(), svc.Close()); err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{Options: testOptions(), WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rig := newForwardRig(t, coord, cfg)
	var st client.Stats
	waitUntil(t, 10*time.Second, "the site to report its stall", func() bool {
		st, err = client.New(rig.siteTS.URL).Stats(context.Background())
		return err == nil && strings.Contains(st.ForwardStalled, `start it on a copy of this server's snapshot (README "Replication & HA")`)
	})
	if rig.site.metrics.siteForwardsRefused.Load() == 0 || coord.Engine().Count() != 0 {
		t.Fatalf("a stalled site: %d refusals counted, the coordinator holds %d tuples", rig.site.metrics.siteForwardsRefused.Load(), coord.Engine().Count())
	}

	if err := rig.site.Snapshot(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapshotAt(cfg))
	if err != nil {
		t.Fatal(err)
	}
	boot, err := New(Config{Options: testOptions(), WALDir: stateWith(t, data)})
	if err != nil {
		t.Fatal(err)
	}
	rig.coord.Store(boot)
	coord.Close()
	rig.acked[""] = 800
	rig.ingest("", 2, 100, 9)
	rig.settle("on the bootstrapped coordinator")
}

// TestForwardTwoPathsApplyOnce: a site's records reach the top coordinator
// directly and nested in a mid-tier coordinator's forwards — site → mid →
// top and site → top — the direct path first, then both at once. Each
// record, nested or not, is dropped at or below its own site's mark, so top
// holds every acknowledged tuple once in summaries byte-identical to the
// site's (a serial replay of the acknowledged set), live and after a
// restart replays its log.
func TestForwardTwoPathsApplyOnce(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	topCfg, midCfg := walConfig(t), walConfig(t)
	top, err := New(topCfg)
	if err != nil {
		t.Fatal(err)
	}
	toTop := newTarget(t, top)
	midCfg.PushTo = toTop.proxy.URL
	mid, err := New(midCfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := newForwardRig(t, top, walConfig(t), newTarget(t, mid))

	toTop.down.Store(true) // mid holds the site's records and sends none on
	rig.ingest("", 6, 100, 1)
	rig.ingest("a", 3, 100, 20)
	rig.settle("directly")
	toTop.down.Store(false)
	caughtUp(t, "mid", mid)
	rig.settle("through mid as well")

	rig.ingest("", 4, 100, 40)
	rig.ingest("b", 2, 100, 60)
	caughtUp(t, "the site", rig.site)
	caughtUp(t, "mid", mid)
	rig.settle("both paths at once")

	crash(nil, top)
	if top, err = New(topCfg); err != nil {
		t.Fatal(err)
	}
	rig.coord.Store(top)
	toTop.coord.Store(top)
	rig.settle("after a restart replayed the log")
}

// TestForwardFollowsAMarkThatMoves: a coordinator restarted on an older
// copy of its snapshot and log — with every server logging, the one way a
// mark goes backwards — answers its site a mark short of what the site had
// confirmed, and the site follows again from that mark: it sends what the
// copy lacks, and the coordinator ends byte-identical to the site. The
// coordinator forwards to a standby of its own, whose mark is now past the
// copy's log: the coordinator follows from there and logs it once. Last, an
// answer short of a forward's first record — a copy of it whose append
// failed ahead of it — has the site send the records again.
func TestForwardFollowsAMarkThatMoves(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	_, standbyTS := newStandby(t, testOptions(), nil)
	coordCfg := walConfig(t)
	coordCfg.PushTo = standbyTS.URL
	coord, err := New(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := newForwardRig(t, coord, walConfig(t))
	rig.ingest("", 3, 100, 1)
	rig.ingest("a", 2, 100, 10)
	rig.settle("before the copy")
	caughtUp(t, "the coordinator", coord)

	// The copy: the coordinator's snapshot and log as a clean stop left them.
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	older := coordCfg
	older.WALDir = copyState(t, coordCfg)
	if coord, err = New(coordCfg); err != nil {
		t.Fatal(err)
	}
	rig.coord.Store(coord)
	rig.ingest("", 4, 100, 20)
	rig.ingest("b", 2, 100, 30)
	rig.settle("past the copy")
	caughtUp(t, "the coordinator", coord)

	// The site is idle at the frontier: its next empty forward reads the
	// copy's mark.
	crash(nil, coord)
	var logged syncBuffer
	older.Logger = log.New(&logged, "", 0)
	if coord, err = New(older); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	rig.coord.Store(coord)
	waitUntil(t, 10*time.Second, "the site to send the copy what it lacks", func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return coord.marks[rig.site.fwds[0].site] == rig.site.wal.LastLSN()
	})
	rig.settle("on the older copy")
	const ahead = "past this log's end"
	waitUntil(t, 10*time.Second, "the coordinator to follow from its standby's mark", func() bool {
		return strings.Contains(logged.String(), ahead)
	})

	var stale func(http.ResponseWriter, *http.Request)
	answered := make(chan struct{})
	stale = func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength == 0 {
			rig.fault.Store(&stale) // an empty forward: wait for one of records
		} else {
			io.Copy(io.Discard, r.Body)
			r = r.Clone(r.Context())
			r.Body, r.ContentLength = http.NoBody, 0 // the mark, nothing applied
			defer close(answered)
		}
		rig.coord.Load().Handler().ServeHTTP(w, r)
	}
	rig.fault.Store(&stale)
	failed := rig.site.metrics.siteForwardsFailed.Load()
	rig.ingest("a", 2, 100, 40)
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("no forward of records reached the target")
	}
	rig.settle("after an answer short of the forward")
	if rig.site.metrics.siteForwardsFailed.Load() == failed {
		t.Fatal("the site counted no failed forward for an answer short of its first record")
	}
	if n := strings.Count(logged.String(), ahead); n != 1 {
		t.Fatalf("the coordinator logged a mark %s %d times, want once:\n%s", ahead, n, logged.String())
	}
}

// TestForwardRefusesAGap: a coordinator restarted on an older copy of its
// state holds a mark short of what its site had confirmed. The site's next
// records reach it before an idle forward could read that mark, so they
// follow records the coordinator does not hold: it refuses them as a gap,
// with its mark, and the site sends again from there. The coordinator ends
// holding every acknowledged tuple, byte-identical to the site.
func TestForwardRefusesAGap(t *testing.T) {
	was := forwardPause
	forwardPause = 2 * time.Second // no idle forward reads the copy's mark first
	t.Cleanup(func() { forwardPause = was })
	coordCfg := walConfig(t)
	coord, err := New(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := newForwardRig(t, coord, walConfig(t))
	rig.ingest("", 4, 100, 1)
	rig.settle("before the copy")

	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	older := coordCfg
	older.WALDir = copyState(t, coordCfg)
	if coord, err = New(coordCfg); err != nil {
		t.Fatal(err)
	}
	rig.coord.Store(coord)
	rig.ingest("", 2, 100, 20)
	rig.settle("past the copy")

	crash(nil, coord)
	if coord, err = New(older); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	rig.coord.Store(coord)
	gaps := coord.metrics.forwardsRejected.Load()
	rig.ingest("", 2, 100, 30)
	rig.settle("on the older copy")
	if rig.acked[""] != 800 || coord.metrics.forwardsRejected.Load() == gaps {
		t.Fatalf("%d tuples acknowledged, and the copy refused no forward as a gap", rig.acked[""])
	}
}

// TestForwardRetryNamesItsLastRecord: a site whose target has confirmed a
// checkpoint record past the last record it forwarded sends a forward that
// failed again naming that last record as prev, not the checkpoint: the
// coordinator refuses nothing as a gap.
func TestForwardRetryNamesItsLastRecord(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	coord, err := New(walConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	rig := newForwardRig(t, coord, walConfig(t))
	rig.ingest("", 2, 100, 1)
	rig.settle("before the checkpoint")
	if err := rig.site.Snapshot(); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "past the checkpoint", rig.site)

	rig.down.Store(true)
	failed := rig.site.metrics.siteForwardsFailed.Load()
	rig.ingest("", 2, 100, 10)
	waitUntil(t, 10*time.Second, "a failed forward", func() bool { return rig.site.metrics.siteForwardsFailed.Load() > failed })
	rig.down.Store(false)
	rig.settle("after the failed forward")
	if n := coord.metrics.forwardsRejected.Load(); rig.acked[""] != 400 || n != 0 {
		t.Fatalf("%d tuples acknowledged; the coordinator refused %d forwards", rig.acked[""], n)
	}
}

// copyState copies a server's state directory — its snapshots and its
// log — and returns the copy's path.
func copyState(t *testing.T, cfg Config) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(cfg.WALDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(cfg.WALDir, e.Name()))
		if err = cmp.Or(err, os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSiteFailsOverToItsStandby: a site forwards to its coordinator and to
// its standby, which forwards onward to the coordinator as well. The site is
// killed mid-ingest with the coordinator out of its reach, the standby is
// promoted and takes writes, and the coordinator ends with every tuple the
// site logged — each it acknowledged, and one whose answer the kill cut —
// and then the standby acknowledged, once: the site's records reach it
// directly and nested in the standby's, each applied once by the site's
// mark, in summaries byte-identical to the standby's.
func TestSiteFailsOverToItsStandby(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	coord, coordTS, _ := newTestServer(t, Config{Options: testOptions()})
	standby, _ := newStandby(t, testOptions(), func(c *Config) { c.WALDir, c.PushTo = t.TempDir(), coordTS.URL })
	toStandby := newTarget(t, standby)
	rig := newForwardRig(t, coord, walConfig(t), toStandby)
	rig.ingest("", 4, 100, 1)
	rig.ingest("a", 2, 100, 10)
	rig.settle("with every path up")

	rig.down.Store(true)
	last := rig.site.wal.LastLSN()
	ingested := make(chan int)
	go func() {
		n, cl := 0, client.New(rig.siteTS.URL, client.WithRetries(0))
		for i := uint64(0); cl.AddBatch(context.Background(), testStream(100, 100+i)) == nil; i++ {
			n += 100
		}
		ingested <- n
	}()
	waitUntil(t, 10*time.Second, "the site to acknowledge more", func() bool { return rig.site.wal.LastLSN() >= last+5 })
	crash(rig.siteTS, rig.site)
	rig.acked[""] += <-ingested
	// The kill can cut the answer to a write it logged: the site's state,
	// its log, holds every acknowledged tuple and maybe that one.
	rig.site.mu.Lock()
	logged := int(rig.site.def.eng.Count())
	rig.site.mu.Unlock()
	if logged < rig.acked[""] || logged > rig.acked[""]+100 {
		t.Fatalf("the killed site holds %d tuples; %d were acknowledged", logged, rig.acked[""])
	}
	rig.acked[""] = logged

	if err := standby.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := client.New(toStandby.proxy.URL, client.WithTenant("a")).AddBatch(context.Background(), testStream(300, 200)); err != nil {
		t.Fatal(err)
	}
	rig.acked["a"] += 300
	caughtUp(t, "the promoted standby", standby)
	for name, n := range rig.acked {
		st, err := client.New(coordTS.URL, client.WithTenant(name)).Stats(context.Background())
		if err != nil || st.Count != uint64(n) || !bytes.Equal(tenantSummary(t, coordTS.URL, name), tenantSummary(t, toStandby.proxy.URL, name)) {
			t.Fatalf("tenant %q: the coordinator holds %d tuples of %d acknowledged, its summary equal to the standby's %t (err %v)",
				name, st.Count, n, bytes.Equal(tenantSummary(t, coordTS.URL, name), tenantSummary(t, toStandby.proxy.URL, name)), err)
		}
	}
}

// caughtUp waits until each of svc's targets has confirmed what its log
// holds.
func caughtUp(t *testing.T, when string, svc *Server) {
	t.Helper()
	waitUntil(t, 20*time.Second, when+": the forwarders catching up", func() bool {
		for _, f := range svc.fwds {
			if f.acked.Load() < svc.wal.LastLSN() {
				return false
			}
		}
		return true
	})
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
				if applied := coord.metrics.forwardsApplied.Load(); err != nil || st.Count != uint64(n) || applied < uint64(64*sites) {
					t.Fatalf("coordinator: %d tuples, %d forwards applied (err %v); want %d, at least %d",
						st.Count, applied, err, n, 64*sites)
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
