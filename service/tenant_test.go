package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/wal"
)

// The tests here pin the multi-tenant namespace layer: N keyed
// summaries behind one daemon must stay independent (per-tenant results
// float-exact against per-tenant serial oracles), crash-exact (per-tenant recovered
// summary bytes identical to a crash-free serial run of that tenant's
// acknowledged traffic), and governable (count/memory caps with typed
// rejections, idle spill that round-trips through the marshaled image
// bit-exactly).

// tenantKey names the i-th test tenant.
func tenantKey(i int) string { return fmt.Sprintf("t%03d", i) }

// tenantSummary fetches one tenant's /v1/summary bytes.
func tenantSummary(t *testing.T, url, name string) []byte {
	t.Helper()
	img, err := client.New(url, client.WithTenant(name)).Summary(context.Background())
	if err != nil {
		t.Fatalf("tenant %q summary: %v", name, err)
	}
	return img
}

// TestMultiTenantCrashRecoveryExact is the tentpole's acceptance
// contract: eight tenants ingest concurrently — half over HTTP, half
// over the keyed streaming transport — with default-tenant traffic and
// a site's forward to one keyed tenant mixed in, a snapshot lands mid-run (so recovery is
// restore-v2-then-replay-suffix, not pure replay), the server is killed
// without warning, and the restart rebuilds every tenant's summary
// byte-identical both to the pre-crash state and to a crash-free oracle
// server that ran each tenant's acknowledged operations serially.
//
// Per-tenant ingest is sequential (each request/frame awaited before
// the next — stream clients run a window of 1) while tenants proceed
// concurrently, so each commit group carries at most one batch per
// tenant and the per-tenant AddBatch sequence is exactly the serial
// oracle's: batch boundaries stay a pure function of the log, per
// tenant.
func TestMultiTenantCrashRecoveryExact(t *testing.T) {
	const (
		tenantsN = 8
		chunk    = 250
	)
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	addr := startStream(t, svc)
	ctx := context.Background()

	// tenantPhaseStream is the tenant's acknowledged traffic in phase p,
	// deterministic so the oracle regenerates it.
	tenantPhaseStream := func(i, p int) []correlated.Tuple {
		return testStream(700+i*37, uint64(1_000*p+i))
	}
	defaultPhaseStream := func(p int) []correlated.Tuple {
		return testStream(900, uint64(5_000+p))
	}

	// ingestPhase drives one phase: all tenants (plus the default) in
	// parallel, each sequential within itself.
	ingestPhase := func(p int) {
		var wg sync.WaitGroup
		errs := make([]error, tenantsN+1)
		for i := 0; i < tenantsN; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stream := tenantPhaseStream(i, p)
				if i%2 == 0 {
					cl := client.New(ts.URL, client.WithChunkSize(chunk), client.WithTenant(tenantKey(i)))
					errs[i] = cl.AddBatch(ctx, stream)
					return
				}
				st, err := client.DialStream(ctx, addr,
					client.WithStreamTenant(tenantKey(i)), client.WithStreamWindow(1))
				if err != nil {
					errs[i] = err
					return
				}
				for off := 0; off < len(stream); off += chunk {
					end := min(off+chunk, len(stream))
					if err := st.Send(stream[off:end]); err != nil {
						errs[i] = err
						st.Close()
						return
					}
				}
				errs[i] = st.Close()
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(ts.URL, client.WithChunkSize(chunk))
			errs[tenantsN] = cl.AddBatch(ctx, defaultPhaseStream(p))
		}()
		wg.Wait()
		for i, e := range errs {
			if e != nil {
				t.Fatalf("ingester %d phase %d: %v", i, p, e)
			}
		}
	}

	ingestPhase(1)
	if err := svc.Snapshot(); err != nil { // every tenant in one file
		t.Fatal(err)
	}
	ingestPhase(2)

	// A site's forward into one keyed tenant: the site's ingest record
	// rides a RecordForward behind the site id.
	fwd := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, tenantKey(2)))
	if _, err := client.New(ts.URL).Forward(ctx, 0xabc, wal.Version, 0, fwd); err != nil {
		t.Fatal(err)
	}

	// Pre-crash oracle: every request above was acknowledged, so these
	// bytes are exactly what recovery must rebuild.
	pre := make(map[string][]byte, tenantsN+1)
	for i := 0; i < tenantsN; i++ {
		pre[tenantKey(i)] = tenantSummary(t, ts.URL, tenantKey(i))
	}
	pre[""] = tenantSummary(t, ts.URL, "")
	crash(ts, svc)

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ts2.Close()
		svc2.Close()
	}()
	if svc2.metrics.walReplayRecords.Load() == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	for name, want := range pre {
		got := tenantSummary(t, ts2.URL, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %q: recovered summary differs from pre-crash state (%d vs %d bytes)",
				name, len(got), len(want))
		}
	}
	st, err := client.New(ts2.URL).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != tenantsN+1 {
		t.Fatalf("recovered %d tenants, want %d", st.Tenants, tenantsN+1)
	}

	// Crash-free oracle server: each tenant's acknowledged operations run
	// serially, alone, with the same chunk boundaries — its summary must
	// match the recovered multi-tenant state byte for byte.
	oracleCfg := walConfig(t)
	oracle, err := New(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	ots := httptest.NewServer(oracle.Handler())
	defer func() {
		ots.Close()
		oracle.Close()
	}()
	for i := 0; i < tenantsN; i++ {
		cl := client.New(ots.URL, client.WithChunkSize(chunk), client.WithTenant(tenantKey(i)))
		for p := 1; p <= 2; p++ {
			if err := cl.AddBatch(ctx, tenantPhaseStream(i, p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := client.New(ots.URL).Forward(ctx, 0xabc, wal.Version, 0, fwd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tenantsN; i++ {
		want := tenantSummary(t, ots.URL, tenantKey(i))
		got := tenantSummary(t, ts2.URL, tenantKey(i))
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %q: recovered summary differs from serial oracle (%d vs %d bytes)",
				tenantKey(i), len(got), len(want))
		}
	}
}

// TestTenantIsolation is the namespace-independence property test:
// chunks from K tenants interleave round-robin through the shared
// pipeline, and every tenant must answer float-exactly like a serial
// offline summary of its own stream alone.
func TestTenantIsolation(t *testing.T) {
	const tenantsN = 5
	o := testOptions()
	_, ts, _ := newTestServer(t, Config{Options: o})
	ctx := context.Background()

	streams := make([][]correlated.Tuple, tenantsN)
	clients := make([]*client.Client, tenantsN)
	for i := range streams {
		streams[i] = testStream(2_000+i*111, uint64(400+i))
		clients[i] = client.New(ts.URL, client.WithTenant(tenantKey(i)))
	}
	const chunk = 128
	for off := 0; ; off += chunk {
		advanced := false
		for i, s := range streams {
			if off >= len(s) {
				continue
			}
			advanced = true
			end := min(off+chunk, len(s))
			if err := clients[i].AddBatch(ctx, s[off:end]); err != nil {
				t.Fatalf("tenant %d chunk at %d: %v", i, off, err)
			}
		}
		if !advanced {
			break
		}
	}

	check := func(stage string) {
		for i, s := range streams {
			offline, err := correlated.NewF2Summary(o)
			if err != nil {
				t.Fatal(err)
			}
			if err := offline.AddBatch(append([]correlated.Tuple(nil), s...)); err != nil {
				t.Fatal(err)
			}
			for _, c := range []uint64{0, 77, distinctY, 1 << 15} {
				want, err1 := offline.QueryLE(c)
				got, err2 := clients[i].QueryLE(ctx, c)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s tenant %d c=%d: %v %v", stage, i, c, err1, err2)
				}
				if got != want {
					t.Fatalf("%s tenant %d LE c=%d: service %v offline %v", stage, i, c, got, want)
				}
			}
		}
	}
	check("interleaved")

	// Read paths never create tenants: an unknown key is 404.
	var ae *client.APIError
	if _, err := client.New(ts.URL, client.WithTenant("never-seen")).QueryLE(ctx, 10); !asAPIError(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown-tenant query: %v", err)
	}
	// Hostile keys are rejected before touching the registry.
	resp, err := http.Post(ts.URL+"/v1/ingest?tenant="+strings.Repeat("x", 200), "text/csv", strings.NewReader("1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized tenant key: HTTP %d", resp.StatusCode)
	}
}

// TestTenantSpillRestoreRoundTrip: spilling an idle tenant to its
// marshaled image and lazily restoring it on the next touch is
// bit-exact — summary bytes and query answers identical across the
// round trip — and the default tenant never spills.
func TestTenantSpillRestoreRoundTrip(t *testing.T) {
	const tenantsN = 3
	svc, ts, _ := newTestServer(t, Config{Options: testOptions()})
	ctx := context.Background()

	pre := make([][]byte, tenantsN)
	for i := 0; i < tenantsN; i++ {
		cl := client.New(ts.URL, client.WithTenant(tenantKey(i)))
		if err := cl.AddBatch(ctx, testStream(1_500+i*101, uint64(600+i))); err != nil {
			t.Fatal(err)
		}
		pre[i] = tenantSummary(t, ts.URL, tenantKey(i))
	}
	if err := client.New(ts.URL).AddBatch(ctx, testStream(500, 7)); err != nil {
		t.Fatal(err)
	}

	if spilled := svc.spillIdle(0); spilled != tenantsN {
		t.Fatalf("spilled %d tenants, want %d (default must never spill)", spilled, tenantsN)
	}
	for i := 0; i < tenantsN; i++ {
		tn := svc.tenantByName(tenantKey(i))
		svc.mu.Lock()
		spilled := tn.spilledLocked()
		svc.mu.Unlock()
		if !spilled {
			t.Fatalf("tenant %d still live after spillIdle(0)", i)
		}
	}
	svc.mu.Lock()
	defLive := !svc.def.spilledLocked()
	svc.mu.Unlock()
	if !defLive {
		t.Fatal("default tenant spilled")
	}

	// Any touch restores: the summary bytes after the round trip must be
	// identical, and the per-tenant stats must record the cycle.
	for i := 0; i < tenantsN; i++ {
		if got := tenantSummary(t, ts.URL, tenantKey(i)); !bytes.Equal(got, pre[i]) {
			t.Fatalf("tenant %d: summary differs across spill/restore (%d vs %d bytes)",
				i, len(got), len(pre[i]))
		}
		st, err := client.New(ts.URL, client.WithTenant(tenantKey(i))).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.TenantSpills != 1 || st.TenantRestores != 1 {
			t.Fatalf("tenant %d: spills=%d restores=%d, want 1/1", i, st.TenantSpills, st.TenantRestores)
		}
		if st.Tenant != tenantKey(i) {
			t.Fatalf("stats names tenant %q", st.Tenant)
		}
	}

	// Spilled tenants keep ingesting after restore-by-write.
	if spilled := svc.spillIdle(0); spilled != tenantsN {
		t.Fatalf("second spill pass spilled %d", spilled)
	}
	cl := client.New(ts.URL, client.WithTenant(tenantKey(0)))
	if err := cl.AddBatch(ctx, testStream(100, 999)); err != nil {
		t.Fatalf("ingest into spilled tenant: %v", err)
	}
	n, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n.TenantTuplesIngested == 0 {
		t.Fatal("no tuples counted after restore-by-write")
	}
}

// TestTenantIdleSpillTicker: the ticker New starts for TenantIdleSpill
// spills an idle keyed tenant on its own, never the default tenant, and
// a query on the spilled tenant restores it with the answer it gave
// before the spill. Under -race the default tenant's ingest can outlast
// the idle period, so the ticker may spill the tenant before the first
// query too, which then restores it: only the second query's restores
// are counted.
func TestTenantIdleSpillTicker(t *testing.T) {
	const idle = 20 * time.Millisecond
	svc, ts, def := newTestServer(t, Config{Options: testOptions(), TenantIdleSpill: idle})
	ctx := context.Background()
	cl := client.New(ts.URL, client.WithTenant("idle"))
	if err := cl.AddBatch(ctx, testStream(1_000, 41)); err != nil {
		t.Fatal(err)
	}
	if err := def.AddBatch(ctx, testStream(500, 42)); err != nil {
		t.Fatal(err)
	}
	before, err := cl.QueryLE(ctx, 150)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "the idle tenant's spill", func() bool {
		body := scrape(t, ts.URL)
		return metricValue(t, body, "corrd_tenants_live") == 1 && metricValue(t, body, "corrd_tenant_spills_total") >= 1
	})
	time.Sleep(5 * idle) // the default tenant idles through more ticks
	svc.mu.Lock()
	defSpilled, idleSpilled := svc.def.spilledLocked(), svc.tenantByName("idle").spilledLocked()
	svc.mu.Unlock()
	if defSpilled || !idleSpilled {
		t.Fatalf("after the ticker: default spilled %t, idle tenant spilled %t", defSpilled, idleSpilled)
	}
	restores := svc.tenantByName("idle").restores.Load()
	after, err := cl.QueryLE(ctx, 150)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("the restored tenant answers %v, %v before the spill", after, before)
	}
	if n := svc.tenantByName("idle").restores.Load() - restores; n != 1 {
		t.Fatalf("the query restored the spilled tenant %d times, want once", n)
	}
}

// TestSummaryServesSpilledImage: GET /v1/summary on a spilled tenant
// serves the parked image as it stands — the pre-spill bytes — and a read
// does not un-spill the tenant: corrd_tenants_live and
// corrd_tenant_restores_total do not move, and corrd_tenant_bytes is the
// recount, the image's length. A tenant parked empty (a snapshot entry of
// no bytes) has no bytes to serve — the empty summary's image is not zero
// bytes — so that one materializes.
func TestSummaryServesSpilledImage(t *testing.T) {
	svc, ts, _ := newTestServer(t, Config{Options: testOptions()})
	ctx := context.Background()
	if err := client.New(ts.URL, client.WithTenant("idle")).AddBatch(ctx, testStream(1_200, 41)); err != nil {
		t.Fatal(err)
	}
	pre := tenantSummary(t, ts.URL, "idle")
	if spilled := svc.spillIdle(0); spilled != 1 {
		t.Fatalf("spilled %d tenants, want 1", spilled)
	}
	gauges := func() (live, restores float64) {
		t.Helper()
		body := scrape(t, ts.URL)
		return metricValue(t, body, "corrd_tenants_live"), metricValue(t, body, "corrd_tenant_restores_total")
	}
	live, restores := gauges()
	if got := tenantSummary(t, ts.URL, "idle"); !bytes.Equal(got, pre) {
		t.Fatalf("spilled tenant's summary differs from its pre-spill bytes (%d vs %d)", len(got), len(pre))
	}
	if l, r := gauges(); l != live || r != restores {
		t.Fatalf("reading a spilled tenant's summary moved corrd_tenants_live %v → %v, corrd_tenant_restores_total %v → %v", live, l, restores, r)
	}
	if got := metricValue(t, scrape(t, ts.URL), "corrd_tenant_bytes"); int64(got) != recountTenantBytes(svc) {
		t.Fatalf("corrd_tenant_bytes %v with a tenant spilled, recount says %d", got, recountTenantBytes(svc))
	}

	svc.mu.Lock()
	svc.installImageLocked(svc.tenantByName("idle"), nil)
	svc.mu.Unlock()
	empty, err := correlated.NewF2Summary(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := tenantSummary(t, ts.URL, "idle"); !bytes.Equal(got, want) {
		t.Fatalf("emptied tenant's summary is %d bytes, want the empty summary's %d", len(got), len(want))
	}
}

// TestTenantGovernanceCaps: creation past MaxTenants is a typed 429,
// creation past MaxTenantBytes a typed 413, existing tenants keep
// serving, and the keyed streaming transport surfaces the same refusal
// as an AckTenant without killing the connection's protocol state.
func TestTenantGovernanceCaps(t *testing.T) {
	// MaxTenants counts the registry including the default tenant:
	// 3 = default + two keyed.
	svc, ts, _ := newTestServer(t, Config{Options: testOptions(), MaxTenants: 3})
	addr := startStream(t, svc)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		cl := client.New(ts.URL, client.WithTenant(tenantKey(i)))
		if err := cl.AddBatch(ctx, testStream(200, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	err := client.New(ts.URL, client.WithTenant("one-too-many")).AddBatch(ctx, testStream(10, 3))
	var ae *client.APIError
	if !client.IsTenantRejected(err) || !asAPIError(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("tenant over count cap: %v", err)
	}
	// Existing tenants are unaffected by the rejection.
	if err := client.New(ts.URL, client.WithTenant(tenantKey(0))).AddBatch(ctx, testStream(10, 4)); err != nil {
		t.Fatal(err)
	}

	// The same refusal over the streaming transport: typed ack, latched
	// by Close.
	st, err := client.DialStream(ctx, addr, client.WithStreamTenant("stream-too-many"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(testStream(10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err == nil || !strings.Contains(err.Error(), "governance") {
		t.Fatalf("stream tenant over cap: %v", err)
	}

	// Memory cap: the footprint gauge moves at commit, so the first tenant
	// lands (the gauge holds the empty default tenant alone, a byte under
	// the cap), the commit records its footprint, and the next creation is
	// refused 413.
	empty, err := newEngine(&Config{Options: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	svc2, ts2, _ := newTestServer(t, Config{Options: testOptions(), MaxTenantBytes: liveBytes(empty) + 1})
	if err := client.New(ts2.URL, client.WithTenant("fits")).AddBatch(ctx, testStream(500, 6)); err != nil {
		t.Fatal(err)
	}
	// The gauge has one unit, bytes: a live tenant counts what its summary
	// keeps on the heap, a spilled one its image length — smaller by the
	// structs and empty slots an image does not carry, not by a change of
	// unit.
	fits := svc2.tenantByName("fits")
	svc2.mu.Lock()
	live := liveBytes(fits.eng)
	svc2.mu.Unlock()
	def := svc2.def.footprint.Load() // noted when its state or form changes: at New alone, here
	if got := svc2.tenantBytes.Load(); got != live+def || live < 1 {
		t.Fatalf("footprint gauge %d after commit, want %d live + %d default", got, live, def)
	}
	if spilled := svc2.spillIdle(0); spilled != 1 {
		t.Fatalf("spilled %d tenants, want 1", spilled)
	}
	svc2.mu.Lock()
	image := int64(len(fits.pending))
	svc2.mu.Unlock()
	if got := svc2.tenantBytes.Load(); got != image+def || image > live || image*16 < live {
		t.Fatalf("footprint gauge %d after spill: image %d bytes, live sample was %d", got, image, live)
	}
	err = client.New(ts2.URL, client.WithTenant("evicted-by-cap")).AddBatch(ctx, testStream(10, 7))
	if !client.IsTenantRejected(err) || !asAPIError(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("tenant over memory cap: %v", err)
	}
}

// TestTenantReplayBypassesCaps: WAL replay and snapshot restore
// re-create whatever existed at the crash even under caps that would
// refuse those tenants today — acknowledged data outranks governance —
// while new creations still hit the lowered cap.
func TestTenantReplayBypassesCaps(t *testing.T) {
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	ctx := context.Background()
	pre := make([][]byte, 3)
	for i := range pre {
		cl := client.New(ts.URL, client.WithTenant(tenantKey(i)))
		if err := cl.AddBatch(ctx, testStream(400+i*31, uint64(800+i))); err != nil {
			t.Fatal(err)
		}
		pre[i] = tenantSummary(t, ts.URL, tenantKey(i))
	}
	crash(ts, svc)

	cfg2 := cfg
	cfg2.MaxTenants = 2 // would refuse all three keyed tenants today
	svc2, err := New(cfg2)
	if err != nil {
		t.Fatalf("recovery under a lowered cap: %v", err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ts2.Close()
		svc2.Close()
	}()
	for i := range pre {
		if got := tenantSummary(t, ts2.URL, tenantKey(i)); !bytes.Equal(got, pre[i]) {
			t.Fatalf("tenant %d lost across capped recovery", i)
		}
	}
	err = client.New(ts2.URL, client.WithTenant("fresh")).AddBatch(ctx, testStream(10, 1))
	if !client.IsTenantRejected(err) {
		t.Fatalf("new tenant under lowered cap: %v", err)
	}
}

// TestTenantChurnStressRace hammers one server with tenant churn —
// concurrent per-tenant ingest and queries while another goroutine
// spills and restores tenants and creations race the count cap — then
// checks every tenant float-exact against its serial oracle. Run with
// -race this is the data-race acceptance test for the registry, the
// spill path, and the per-tenant answer memo.
func TestTenantChurnStressRace(t *testing.T) {
	const (
		tenantsN = 6
		rounds   = 8
		chunk    = 100
	)
	o := testOptions()
	svc, ts, _ := newTestServer(t, Config{Options: o, QueryMaxStale: 0})
	ctx := context.Background()

	streams := make([][]correlated.Tuple, tenantsN)
	for i := range streams {
		streams[i] = testStream(rounds*chunk, uint64(1_300+i))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churn: spill everything idle, repeatedly, while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				svc.spillIdle(0)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	errc := make(chan error, tenantsN*2)
	for i := 0; i < tenantsN; i++ {
		wg.Add(1)
		go func(i int) { // ingest: sequential chunks for tenant i
			defer wg.Done()
			cl := client.New(ts.URL, client.WithTenant(tenantKey(i)))
			s := streams[i]
			for off := 0; off < len(s); off += chunk {
				if err := cl.AddBatch(ctx, s[off:off+chunk]); err != nil {
					errc <- fmt.Errorf("tenant %d ingest: %w", i, err)
					return
				}
			}
		}(i)
		wg.Add(1)
		go func(i int) { // queries race the ingest and the churn
			defer wg.Done()
			cl := client.New(ts.URL, client.WithTenant(tenantKey(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.QueryLE(ctx, distinctY); err != nil {
					var ae *client.APIError
					if asAPIError(err, &ae) && ae.Status == http.StatusNotFound {
						continue // racing the tenant's first ingest
					}
					errc <- fmt.Errorf("tenant %d query: %w", i, err)
					return
				}
			}
		}(i)
	}
	// Wait for the ingesters (first tenantsN goroutines finish their
	// streams), then stop the churn and query loops.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		allIn := true
		for i := 0; i < tenantsN; i++ {
			tn := svc.tenantByName(tenantKey(i))
			if tn == nil || tn.tuplesIngested.Load() < uint64(len(streams[i])) {
				allIn = false
				break
			}
		}
		select {
		case err := <-errc:
			close(stop)
			<-done
			t.Fatal(err)
		default:
		}
		if allIn {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Every tenant float-exact against its own serial oracle, churn and
	// all.
	for i, s := range streams {
		offline, err := correlated.NewF2Summary(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := offline.AddBatch(append([]correlated.Tuple(nil), s...)); err != nil {
			t.Fatal(err)
		}
		cl := client.New(ts.URL, client.WithTenant(tenantKey(i)))
		for _, c := range []uint64{0, distinctY / 2, distinctY, 1 << 15} {
			want, err1 := offline.QueryLE(c)
			got, err2 := cl.QueryLE(ctx, c)
			if err1 != nil || err2 != nil {
				t.Fatalf("tenant %d c=%d: %v %v", i, c, err1, err2)
			}
			if got != want {
				t.Fatalf("tenant %d LE c=%d after churn: service %v offline %v", i, c, got, want)
			}
		}
	}
}
