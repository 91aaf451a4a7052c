package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/fault"
	"github.com/streamagg/correlated/internal/wal"
)

// Chaos suite: the fault-injection harness driving the whole daemon.
// Every scenario here enforces the same two contracts the paper-exact
// recovery tests do, under broken disks instead of clean ones:
//
//  1. No acknowledged tuple is ever lost — a server that acked a batch,
//     took disk faults, and was killed restarts byte-identical to a
//     crash-free oracle fed exactly the acknowledged operations.
//  2. The daemon never wedges — faults degrade it (503/AckDegraded,
//     reads still served) or shed load (429/AckBusy, connection kept),
//     and recovery probes return it to healthy once the disk heals.

// chaosConfig is walConfig plus an armed (but initially idle) injector
// between the server and the real filesystem.
func chaosConfig(t *testing.T) (Config, *fault.Injector) {
	t.Helper()
	cfg := walConfig(t)
	inj := fault.NewInjector(fault.OS())
	cfg.FS = inj
	return cfg, inj
}

// mustPlan parses a fault-plan string or fails the test.
func mustPlan(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	return p
}

// ingestOutcome is one sequential batch's fate during a fault run.
type ingestOutcome struct {
	batch int
	acked bool
}

// TestChaosFaultMatrix: for each disk-fault class, ingest sequentially
// while the fault plan is live, kill the server, heal the disk, restart,
// and verify the recovered merged summary is byte-identical to a
// crash-free oracle fed exactly the batches that were acknowledged.
// Requests the fault nacked must be absent; requests it acked must
// survive, regardless of what the fault did to the bytes underneath.
func TestChaosFaultMatrix(t *testing.T) {
	const batches, perBatch = 12, 400
	cases := []struct {
		name string
		plan string
	}{
		// Every ack-path fsync fails from batch 6 on: the log goes
		// sticky-broken and the server degrades; the acked prefix must
		// replay cleanly.
		{"sticky-sync-error", "sync/wal-:err@1+"},
		// The disk fills mid-run: writes return ENOSPC after a byte
		// budget, possibly leaving a torn prefix on the segment tail.
		{"enospc-with-torn-tail", "write/wal-:enospc@8192"},
		// One torn write: half the record lands, the append errors, and
		// the tail must be repaired so later appends (and replay) work.
		{"torn-write", "write/wal-:torn@2"},
		// Pure latency: nothing fails, everything acks, recovery is the
		// plain crash-exact contract under a slow disk.
		{"slow-sync", "sync/wal-:slow@1+=10ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, inj := chaosConfig(t)
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(svc.Handler())
			cl := client.New(ts.URL, client.WithChunkSize(perBatch), client.WithRetries(0))
			ctx := context.Background()

			// Sequential ingest: one request per batch, so each commit
			// group is one batch on both the victim and the oracle and
			// byte-identity is exact, not approximate.
			outcomes := make([]ingestOutcome, 0, batches)
			for i := 0; i < batches; i++ {
				if i == 5 {
					inj.SetPlan(mustPlan(t, tc.plan))
				}
				err := cl.AddBatch(ctx, testStream(perBatch, uint64(100+i)))
				outcomes = append(outcomes, ingestOutcome{batch: i, acked: err == nil})
			}
			acked := 0
			for _, o := range outcomes {
				if o.acked {
					acked++
				}
			}
			if acked < 5 {
				t.Fatalf("fault nacked pre-fault batches: %+v", outcomes)
			}
			crash(ts, svc)
			inj.SetPlan(nil) // the disk heals before the restart

			svc2, err := New(cfg)
			if err != nil {
				t.Fatalf("restart after %s: %v", tc.name, err)
			}
			t.Cleanup(func() { svc2.Close() })
			got, err := svc2.Engine().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}

			// Crash-free oracle on a clean disk, fed only what was acked.
			oracle, err := New(walConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { oracle.Close() })
			ots := httptest.NewServer(oracle.Handler())
			t.Cleanup(ots.Close)
			ocl := client.New(ots.URL, client.WithChunkSize(perBatch))
			for _, o := range outcomes {
				if !o.acked {
					continue
				}
				if err := ocl.AddBatch(ctx, testStream(perBatch, uint64(100+o.batch))); err != nil {
					t.Fatal(err)
				}
			}
			want, err := oracle.Engine().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: recovered state differs from crash-free oracle over the %d acked batches (%d vs %d bytes)",
					tc.name, acked, len(got), len(want))
			}
		})
	}
}

// TestChaosDegradedModeHTTP walks the health state machine end to end
// over HTTP: a sticky fsync fault degrades the server; while degraded,
// writes get 503 + Retry-After (IsDegraded), queries and stats keep
// serving, /readyz reports not-ready while /healthz stays green; the
// admin recovery probe fails while the disk is still broken, then heals
// the machine once the fault clears, and writes resume.
func TestChaosDegradedModeHTTP(t *testing.T) {
	cfg, inj := chaosConfig(t)
	cfg.AdminToken = "t0k3n"
	svc, ts, _ := newTestServer(t, cfg)
	cl := client.New(ts.URL, client.WithChunkSize(512), client.WithRetries(0))
	ctx := context.Background()

	if err := cl.AddBatch(ctx, testStream(1_000, 1)); err != nil {
		t.Fatal(err)
	}
	// Break every fsync: ingests fail until the machine trips degraded.
	inj.SetPlan(mustPlan(t, "sync/wal-:err@1+"))
	var lastErr error
	for i := 0; i < healthFailThreshold+2 && !svc.healthDegraded(); i++ {
		lastErr = cl.AddBatch(ctx, testStream(10, uint64(50+i)))
	}
	if !svc.healthDegraded() {
		t.Fatalf("server did not degrade after repeated wal failures (last: %v)", lastErr)
	}
	// The nacked attempts that tripped the machine never reached the
	// engine — the commit applies only what its log holds — and once
	// degraded the gate refuses writes before the commit sees them, so the
	// count is the acked batch's from here on.
	const preCount = 1_000

	// Degraded contract: writes 503 with Retry-After and the degraded
	// message, reads fine, readyz not ready, healthz alive.
	err := cl.AddBatch(ctx, testStream(10, 99))
	if !client.IsDegraded(err) {
		t.Fatalf("degraded ingest error not IsDegraded: %v", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		t.Fatalf("degraded 503 carries no Retry-After: %v", err)
	}
	fwd := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, ""))
	if _, err := cl.Forward(ctx, 0xabc, wal.Version, 0, fwd); !client.IsDegraded(err) {
		t.Fatalf("degraded forward error not IsDegraded: %v", err)
	}
	if _, err := cl.QueryLE(ctx, 150); err != nil {
		t.Fatalf("degraded server refused a query: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != "degraded" {
		t.Fatalf("stats health = %q, want degraded", st.Health)
	}
	if st.Count != preCount {
		t.Fatalf("degraded state moved: count %d, want %d", st.Count, preCount)
	}
	// The fsync failures that tripped the machine were WAL errors; the
	// ingest and the forward after it were refused as degraded.
	body := scrape(t, ts.URL)
	if metricValue(t, body, "corrd_health_state") != float64(healthDegraded) ||
		metricValue(t, body, "corrd_wal_append_errors_total") < healthFailThreshold ||
		metricValue(t, body, "corrd_degraded_rejects_total") != 2 {
		t.Fatalf("degraded series:\n%s", body)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("/readyz while degraded: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if err := cl.Healthy(ctx); err != nil {
		t.Fatalf("/healthz must stay liveness-only while degraded: %v", err)
	}

	// The recovery endpoint is admin-gated, and an honest probe against
	// a still-broken disk must fail and leave the machine degraded.
	recover := func(token string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/recover", nil)
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return resp
	}
	if resp := recover("wrong"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("recover with bad token: %d", resp.StatusCode)
	}
	if resp := recover("t0k3n"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recover against a broken disk: %d, want 503", resp.StatusCode)
	}
	if !svc.healthDegraded() {
		t.Fatal("failed probe healed the machine")
	}

	// Disk heals; the forced probe brings the server back, and writes
	// (including the batches nacked above) flow again.
	inj.SetPlan(nil)
	if resp := recover("t0k3n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("recover after healing: %d", resp.StatusCode)
	}
	if svc.healthDegraded() {
		t.Fatal("server still degraded after successful probe")
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d", resp.StatusCode)
	}
	if err := cl.AddBatch(ctx, testStream(500, 7)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	st, err = cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != "healthy" || st.DegradedSeconds <= 0 {
		t.Fatalf("post-recovery stats: health=%q degraded_seconds=%v", st.Health, st.DegradedSeconds)
	}
	body = scrape(t, ts.URL)
	if metricValue(t, body, "corrd_health_state") != float64(healthHealthy) ||
		metricValue(t, body, "corrd_degraded_seconds_total") != st.DegradedSeconds {
		t.Fatalf("post-recovery series (stats degraded_seconds %v):\n%s", st.DegradedSeconds, body)
	}
}

// TestChaosProbeHealsUnattended: every commit group whose fsync fails
// adds exactly one to the WAL error streak, the healthFailThreshold-th
// degrades the server, and once the disk heals the background prober
// (healthProbeInterval cadence) brings it back without any admin call.
func TestChaosProbeHealsUnattended(t *testing.T) {
	cfg, inj := chaosConfig(t)
	svc, ts, _ := newTestServer(t, cfg)
	cl := client.New(ts.URL, client.WithChunkSize(512), client.WithRetries(0))
	ctx := context.Background()

	if err := cl.AddBatch(ctx, testStream(500, 1)); err != nil {
		t.Fatal(err)
	}
	inj.SetPlan(mustPlan(t, "sync/wal-:err@1+"))
	for want := int32(1); want <= healthFailThreshold; want++ {
		if err := cl.AddBatch(ctx, testStream(50, uint64(1+want))); err == nil {
			t.Fatal("an ingest whose fsync failed was acknowledged")
		}
		if got := svc.health.walErrs.Load(); got != want {
			t.Fatalf("streak %d after %d failed groups", got, want)
		}
	}
	if !svc.healthDegraded() {
		t.Fatal("the fsync error streak did not degrade the server")
	}
	inj.SetPlan(nil)
	waitUntil(t, 10*time.Second, "background recovery", func() bool {
		return !svc.healthDegraded()
	})
	if err := cl.AddBatch(ctx, testStream(100, 9)); err != nil {
		t.Fatalf("ingest after background recovery: %v", err)
	}
}

// TestChaosFailedBarrierNacksItsDemanders: one commit group, an ingest
// batch beside a barrier job, and the barrier's fsync fails. The failed
// Sync rewound the batch's record, so both are nacked, the streak counts
// the group once, and a restart — from the log alone, no snapshot written
// — does not see the batch. The next group's
// clean fsync resets the streak.
func TestChaosFailedBarrierNacksItsDemanders(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		cfg, inj := chaosConfig(t)
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inj.SetPlan(mustPlan(t, "sync/wal-:err@1"))
		batch := ingestOf("", testStream(300, 1))
		barrier := &ingestJob{op: opBarrier, done: make(chan struct{}, 1)}
		svc.commitGroup([]*ingestJob{batch, barrier})
		<-batch.done
		<-barrier.done
		if barrier.kind != ingestErrWAL {
			t.Fatalf("the barrier job whose fsync failed: kind %d, want ingestErrWAL", barrier.kind)
		}
		if batch.kind != ingestErrWAL || batch.lsn != 0 {
			t.Fatalf("the ingest member beside it: kind %d lsn %d, want kind %d", batch.kind, batch.lsn, ingestErrWAL)
		}
		if got := svc.health.walErrs.Load(); got != 1 {
			t.Fatalf("streak %d after one failed group", got)
		}
		clean := ingestOf("", testStream(200, 2))
		svc.commitGroup([]*ingestJob{clean})
		<-clean.done
		if clean.kind != ingestOK || svc.health.walErrs.Load() != 0 {
			t.Fatalf("a clean group: kind %d, streak %d, want the streak reset", clean.kind, svc.health.walErrs.Load())
		}
		crash(nil, svc)
		svc2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer svc2.Close()
		if got := svc2.Engine().Count(); got != 200 {
			t.Fatalf("restarted server holds %d tuples, want the clean group's 200", got)
		}
	})
}

// TestChaosUnappliedRecordStopsTheApply: a logged record the live state
// fails to apply — admission rules it out, so the test hands the committer
// a batch beyond YMax itself — degrades the server, and nothing after it
// applies: appliedLSN, a snapshot's coverage, stays before it, so no
// checkpoint prunes it and a restart meets it, and no probe recovers.
func TestChaosUnappliedRecordStopsTheApply(t *testing.T) {
	cfg := walConfig(t)
	svc, _, cl := newTestServer(t, cfg)
	if err := cl.AddBatch(context.Background(), testStream(100, 1)); err != nil {
		t.Fatal(err)
	}
	before := svc.appliedLSN.Load()
	bad := ingestOf("", []correlated.Tuple{{X: 1, Y: cfg.Options.YMax + 1, W: 1}})
	svc.commitGroup([]*ingestJob{bad})
	<-bad.done
	if bad.kind != ingestErrEngine || !svc.healthDegraded() {
		t.Fatalf("a logged record that failed to apply: kind %d, degraded %t", bad.kind, svc.healthDegraded())
	}
	good := ingestOf("", testStream(50, 2))
	svc.commitGroup([]*ingestJob{good})
	<-good.done
	if !errors.Is(good.err, errStateBehindLog) {
		t.Fatalf("a record after the unapplied one: err %v, want errStateBehindLog", good.err)
	}
	if err := svc.recoverNow(); err == nil || !svc.healthDegraded() {
		t.Fatalf("a probe recovered a state that lacks a logged record (err %v)", err)
	}
	if err := svc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapshotAt(cfg))
	if err != nil {
		t.Fatal(err)
	}
	covered, _, _, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if covered != before || svc.appliedLSN.Load() != before || svc.Engine().Count() != 100 {
		t.Fatalf("snapshot covers %d, applied %d, count %d; want %d, %d and 100",
			covered, svc.appliedLSN.Load(), svc.Engine().Count(), before, before)
	}
}

// TestChaosNackedWriteLeavesNoTrace: the commit applies only what its log
// holds after the barrier, so a nacked write is in neither the log nor the
// live state nor a snapshot. An ingest, a forward to a tenant that exists
// and a forward that would make a tenant are each nacked by a failed fsync:
// the served summaries do not move, no tenant is made, the site's mark
// stays, and a snapshot taken after the nacks, with the log behind it,
// restarts to exactly the acked writes.
func TestChaosNackedWriteLeavesNoTrace(t *testing.T) {
	cfg, inj := chaosConfig(t)
	svc, ts, _ := newTestServer(t, cfg)
	ctx := context.Background()
	tenants := []string{"", "acme"}
	writer := func(url, tenant string) *client.Client {
		return client.New(url, client.WithTenant(tenant), client.WithRetries(0))
	}
	// forward sends site record lsn, an ingest record for the tenant.
	forward := func(lsn uint64, tenant string) error {
		body := client.AppendForwardRecord(nil, lsn, uint8(wal.RecordIngest), ingestRecord(t, tenant))
		_, err := writer(ts.URL, "").Forward(ctx, 0xabc, wal.Version, 0, body)
		return err
	}
	summaries := func(url string) map[string][]byte {
		out := map[string][]byte{}
		for _, name := range tenants {
			b, err := writer(url, name).Summary(ctx)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = b
		}
		return out
	}
	if err := writer(ts.URL, "").AddBatch(ctx, testStream(500, 1)); err != nil {
		t.Fatal(err)
	}
	if err := forward(1, "acme"); err != nil {
		t.Fatal(err)
	}
	acked := summaries(ts.URL)

	for _, nacked := range []struct {
		what  string
		write func() error
	}{
		{"an ingest", func() error { return writer(ts.URL, "").AddBatch(ctx, testStream(300, 3)) }},
		{"a forward", func() error { return forward(2, "acme") }},
		{"a forward naming a new tenant", func() error { return forward(2, "fresh") }},
	} {
		inj.SetPlan(mustPlan(t, "sync/wal-:err@1"))
		if err := nacked.write(); err == nil {
			t.Fatalf("%s whose fsync failed was acknowledged", nacked.what)
		}
		inj.SetPlan(nil)
		for name, b := range summaries(ts.URL) {
			if !bytes.Equal(b, acked[name]) {
				t.Fatalf("%s was nacked, yet tenant %q's served summary moved", nacked.what, name)
			}
		}
	}
	if svc.tenantByName("fresh") != nil || svc.marks[0xabc] != 1 {
		t.Fatalf("the nacked forwards made their tenant (%t) or moved the site's mark to %d", svc.tenantByName("fresh") != nil, svc.marks[0xabc])
	}
	if err := svc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(ts, svc)

	svc2, ts2, _ := newTestServer(t, cfg)
	if !svc2.Restored() {
		t.Fatal("the restart did not restore the snapshot")
	}
	for name, b := range summaries(ts2.URL) {
		if !bytes.Equal(b, acked[name]) {
			t.Fatalf("tenant %q after snapshot and restart differs from its acked writes (%d vs %d bytes)", name, len(b), len(acked[name]))
		}
	}
	if svc2.tenantByName("fresh") != nil {
		t.Fatal("the restarted server holds the tenant a nacked forward named")
	}
}

// TestChaosStreamDegradedAndBusy: the stream transport's side of both
// machines. A degraded server nacks frames AckDegraded without dropping
// the connection; an overloaded one (bounded commit queue + slow disk)
// nacks AckBusy; and the same connection carries committed frames again
// once each condition clears.
func TestChaosStreamDegradedAndBusy(t *testing.T) {
	cfg, inj := chaosConfig(t)
	cfg.IngestQueueMax = 1
	svc, _, _ := newTestServer(t, cfg)
	addr := startStream(t, svc)
	ctx := context.Background()

	st, err := client.DialStream(ctx, addr, client.WithAckBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sendOne := func(seed uint64) client.Ack {
		t.Helper()
		if err := st.Send(testStream(50, seed)); err != nil {
			t.Fatalf("send: %v", err)
		}
		select {
		case a := <-st.Acks():
			return a
		case <-time.After(10 * time.Second):
			t.Fatal("no ack within 10s (wedged)")
			return client.Ack{}
		}
	}

	if a := sendOne(1); a.Err() != nil {
		t.Fatalf("healthy frame nacked: %v", a.Err())
	}

	// Degrade the machine directly (the HTTP test proves the fault →
	// degrade path; this one isolates the transport contract).
	svc.degrade("chaos test: induced")
	a := sendOne(2)
	if !client.IsDegraded(a.Err()) {
		t.Fatalf("degraded frame ack = %v, want IsDegraded", a.Err())
	}
	if err := svc.recoverNow(); err != nil {
		t.Fatalf("recoverNow on a healthy disk: %v", err)
	}
	if a := sendOne(3); a.Err() != nil {
		t.Fatalf("frame after recovery nacked on the same conn: %v", a.Err())
	}

	// Overload: a one-slot commit queue behind a slow fsync. Frames
	// pumped back-to-back must overrun it and shed AckBusy while the
	// in-flight ones still commit.
	inj.SetPlan(mustPlan(t, "sync/wal-:slow@1+=50ms"))
	const burst = 16
	for i := 0; i < burst; i++ {
		if err := st.Send(testStream(50, uint64(10+i))); err != nil {
			t.Fatalf("burst send %d: %v", i, err)
		}
	}
	var ok, busy int
	for i := 0; i < burst; i++ {
		select {
		case a := <-st.Acks():
			switch {
			case a.Err() == nil:
				ok++
			case client.IsBusy(a.Err()):
				busy++
			default:
				t.Fatalf("burst ack %d: unexpected %v", i, a.Err())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("burst ack %d never arrived (wedged)", i)
		}
	}
	if ok == 0 || busy == 0 {
		t.Fatalf("overload burst: %d ok, %d busy — want both classes", ok, busy)
	}
	inj.SetPlan(nil)
	if a := sendOne(99); a.Err() != nil {
		t.Fatalf("frame after shedding nacked on the same conn: %v", a.Err())
	}
}

// TestChaosOverloadShedHTTP: the HTTP side of the bounded queue — 429
// with a Retry-After derived from the live commit latency, IsBusy on
// the client, shed counted in metrics, and no acked data lost.
func TestChaosOverloadShedHTTP(t *testing.T) {
	cfg, inj := chaosConfig(t)
	cfg.IngestQueueMax = 1
	_, ts, _ := newTestServer(t, cfg)
	ctx := context.Background()

	inj.SetPlan(mustPlan(t, "sync/wal-:slow@1+=50ms"))
	const workers = 12
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(seed uint64) {
			cl := client.New(ts.URL, client.WithChunkSize(512), client.WithRetries(0))
			errs <- cl.AddBatch(ctx, testStream(100, seed))
		}(uint64(i))
	}
	var ok, busy int
	var firstBusy error
	for i := 0; i < workers; i++ {
		switch err := <-errs; {
		case err == nil:
			ok++
		case client.IsBusy(err):
			busy++
			if firstBusy == nil {
				firstBusy = err
			}
		default:
			t.Fatalf("unexpected ingest error under overload: %v", err)
		}
	}
	if ok == 0 || busy == 0 {
		t.Fatalf("overload: %d ok, %d busy — want both classes", ok, busy)
	}
	var ae *client.APIError
	if !errors.As(firstBusy, &ae) || ae.RetryAfter < time.Second {
		t.Fatalf("shed 429 carries no usable Retry-After: %v", firstBusy)
	}
	inj.SetPlan(nil)

	// Quiesced, the accepted work is all there and the shed is counted.
	cl := client.New(ts.URL)
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != uint64(ok*100) {
		t.Fatalf("count %d after %d acked batches of 100", st.Count, ok)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "corrd_ingest_shed_total") {
		t.Fatal("metrics do not expose corrd_ingest_shed_total")
	}
}

// TestChaosSnapshotRetentionFallback: a bit-flipped newest snapshot must
// not take the daemon down — restore falls back to the previous
// retention slot and the (longer) WAL replay suffix rebuilds the exact
// state. With every slot corrupt, startup must refuse rather than serve
// an empty engine over data it was asked to remember.
func TestChaosSnapshotRetentionFallback(t *testing.T) {
	cfg, inj := chaosConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	cl := client.New(ts.URL, client.WithChunkSize(512))
	ctx := context.Background()

	a, b, c := testStream(1_000, 1), testStream(800, 2), testStream(600, 3)
	if err := cl.AddBatch(ctx, a); err != nil {
		t.Fatal(err)
	}
	// A snapshot whose file cannot be created fails, counted, and leaves
	// no slot behind.
	inj.SetPlan(mustPlan(t, "create/snapshot.tmp:err@1"))
	if err := svc.Snapshot(); err == nil {
		t.Fatal("a snapshot whose file could not be created succeeded")
	}
	inj.SetPlan(nil)
	if v := metricValue(t, scrape(t, ts.URL), "corrd_snapshot_errors_total"); v != 1 {
		t.Fatalf("corrd_snapshot_errors_total %v after one failed snapshot, want 1", v)
	}
	if err := svc.Snapshot(); err != nil { // slot 0 covers batch A
		t.Fatal(err)
	}
	if err := cl.AddBatch(ctx, b); err != nil {
		t.Fatal(err)
	}
	if err := svc.Snapshot(); err != nil { // rotates: slot 1 = A, slot 0 = A+B
		t.Fatal(err)
	}
	if err := cl.AddBatch(ctx, c); err != nil { // WAL suffix past both
		t.Fatal(err)
	}
	crash(ts, svc)

	if _, err := os.Stat(snapshotAt(cfg) + ".1"); err != nil {
		t.Fatalf("retention slot 1 missing after two snapshots: %v", err)
	}
	// Bit-rot the newest snapshot: flip a magic byte so the decoder
	// rejects it outright.
	flip := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip(snapshotAt(cfg))

	svc2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart with corrupt newest snapshot: %v", err)
	}
	t.Cleanup(func() { svc2.Close() })
	if !svc2.Restored() {
		t.Fatal("fallback restore did not report restored")
	}
	if !fellBack(t, svc2, cfg) {
		t.Fatal("restore did not take the retention fallback")
	}
	if svc2.metrics.walReplayRecords.Load() == 0 {
		t.Fatal("fallback restart replayed no WAL suffix")
	}
	got, err := svc2.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	oracle, err := New(walConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oracle.Close() })
	ots := httptest.NewServer(oracle.Handler())
	t.Cleanup(ots.Close)
	ocl := client.New(ots.URL, client.WithChunkSize(512))
	if err := ocl.AddBatch(ctx, a); err != nil {
		t.Fatal(err)
	}
	if err := ocl.AddBatch(ctx, b); err != nil {
		t.Fatal(err)
	}
	if err := ocl.AddBatch(ctx, c); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback-restored state differs from oracle (%d vs %d bytes)", len(got), len(want))
	}
	crash(nil, svc2)

	// Both slots corrupt: startup must fail loudly, not serve emptiness.
	flip(snapshotAt(cfg) + ".1")
	if _, err := New(cfg); err == nil {
		t.Fatal("startup served an empty engine over two corrupt snapshots")
	}
}

// TestSnapshotFallbackAfterPrune: a checkpoint prunes the log only up to
// the coverage of the snapshot its rotation moved to snapshot.1, so when the
// newest snapshot is corrupt the fallback still finds its whole log suffix
// once the log has rotated — here every record seals its own segment — and
// the restart holds every acknowledged write. Pruned to the newest's
// coverage, the log started past what snapshot.1 covers and startup failed.
func TestSnapshotFallbackAfterPrune(t *testing.T) {
	cfg := walConfig(t)
	cfg.WALSegmentBytes = 1
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		if err := svc.commit(ingestOf("", testStream(100, i))); err != nil {
			t.Fatal(err)
		}
		if i == 1 || i == 3 {
			if err := svc.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := tenantBytes(t, svc, "")
	crash(nil, svc)
	if oldest := svc.wal.OldestLSN(); oldest == 1 {
		t.Fatal("the second checkpoint pruned nothing")
	}
	data, err := os.ReadFile(snapshotAt(cfg))
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(snapshotAt(cfg), data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart on the fallback snapshot: %v", err)
	}
	defer svc2.Close()
	if got, back := tenantBytes(t, svc2, ""), fellBack(t, svc2, cfg); !back || svc2.Engine().Count() != 600 || !bytes.Equal(got, want) {
		t.Fatalf("the fallback restart (fell back %t) holds %d of the 600 acknowledged tuples", back, svc2.Engine().Count())
	}
}

// TestChaosDegradedPrimaryReplication: a primary whose disk breaks
// degrades without poisoning its standby. The nacked (rewound) records
// never reach it — the followable frontier, all a forwarder reads, freezes
// at the last acked LSN — while the degraded primary's empty forwards still
// do; once the disk heals and recovery passes, new acked records flow again
// and the standby converges byte-exactly. Promoting it then yields a server
// whose state is byte-identical to the primary's acked history, proving
// failover away from a degraded primary loses nothing.
func TestChaosDegradedPrimaryReplication(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	cfg, inj := chaosConfig(t)
	standby, sts := newStandby(t, cfg.Options, func(c *Config) { c.WALDir = t.TempDir() })
	cfg.PushTo = sts.URL
	svc, ts, cl := newTestServer(t, cfg)
	ctx := context.Background()
	acme := client.New(ts.URL, client.WithTenant("acme"))

	if err := cl.AddBatch(ctx, testStream(800, 1)); err != nil {
		t.Fatal(err)
	}
	if err := acme.AddBatch(ctx, testStream(600, 2)); err != nil {
		t.Fatal(err)
	}
	acked := svc.wal.LastLSN()
	caughtUp(t, "the standby before the fault", svc)

	// Break every fsync: ingests fail until the primary trips degraded.
	// Each failed group is rewound out of the log, so the durable
	// frontier — the only thing Follow reads — must not move.
	inj.SetPlan(mustPlan(t, "sync/wal-:err@1+"))
	var lastErr error
	for i := 0; i < healthFailThreshold+2 && !svc.healthDegraded(); i++ {
		lastErr = cl.AddBatch(ctx, testStream(10, uint64(70+i)))
	}
	if !svc.healthDegraded() {
		t.Fatalf("primary did not degrade after repeated wal failures (last: %v)", lastErr)
	}
	if got := svc.wal.FollowableLSN(); got != acked {
		t.Fatalf("degraded primary's followable frontier moved: %d, want %d (nacked records must not be forwarded)", got, acked)
	}
	if got := svc.fwds[0].acked.Load(); got != acked {
		t.Fatalf("the standby confirmed LSN %d, want %d — it saw records the primary nacked", got, acked)
	}
	heard := standby.heard.at.Load()
	waitUntil(t, 10*time.Second, "an empty forward from the degraded primary", func() bool { return standby.heard.at.Load() > heard })

	// Disk heals; recovery probes pass; acked traffic flows to the
	// standby again.
	inj.SetPlan(nil)
	if err := svc.recoverNow(); err != nil {
		t.Fatalf("recoverNow after the disk healed: %v", err)
	}
	if err := cl.AddBatch(ctx, testStream(500, 5)); err != nil {
		t.Fatal(err)
	}
	if err := acme.AddBatch(ctx, testStream(400, 6)); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "the standby after recovery", svc)

	// The standby's contract is "byte-identical to the acked history",
	// and so is the live primary's: the batches that tripped degradation
	// were rewound out of the log and never applied.
	for _, tenant := range []string{"", "acme"} {
		if !bytes.Equal(tenantSummary(t, ts.URL, tenant), tenantSummary(t, sts.URL, tenant)) {
			t.Fatalf("tenant %q: the standby differs from the primary's acked history", tenant)
		}
	}

	// Failover: the promoted standby carries the acked history and takes
	// writes.
	if err := standby.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	rcl := client.New(sts.URL)
	if err := rcl.AddBatch(ctx, testStream(100, 9)); err != nil {
		t.Fatalf("the promoted standby refused a write: %v", err)
	}
	if st, err := rcl.Stats(ctx); err != nil || st.Role != "coordinator" || !st.Promoted {
		t.Fatalf("promoted stats: role %q, promoted %t (err %v)", st.Role, st.Promoted, err)
	}
}

// TestChaosConcurrentWriters: the fault matrix above has one sequential
// writer per case; this one has every class of log writer at once — a
// sequential ingest client on the default tenant, a site forwarding to a
// second tenant, a Snapshot() loop (the checkpoint marker) — under a disk whose
// fsyncs fail one time in ten and whose writes are slow enough for the
// three to share commit groups. When they wrote the log through separate
// paths they shared its unsynced suffix: one writer's failed fsync rewound
// another's record that was then acknowledged behind a later, clean
// barrier, and one writer's clean fsync made durable a record whose own
// barrier had failed; and while the commit applied before it appended, a
// nacked write reached the live state and the snapshots taken of it. So
// the contract checked per round is acked-exact, twice: after crash, heal
// and restart, both the state the log alone rebuilds and the restarted
// server — a snapshot plus the log behind it — hold exactly the
// acknowledged operations, tenant by tenant, byte for byte.
func TestChaosConcurrentWriters(t *testing.T) {
	const rounds, batches, perBatch = 16, 48, 64
	o := testOptions()
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		cfg, inj := chaosConfig(t)
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		inj.SetPlan(mustPlan(t, fmt.Sprintf("seed:%d;write/wal-:slow@1+=2ms;sync/wal-:err@p0.1", round+1)))

		stop := make(chan struct{})
		var wg sync.WaitGroup
		// The site sends its record lsn until one is acknowledged, each
		// attempt an ingest record of a new batch for tenant "site".
		var ackedForwards [][]correlated.Tuple
		wg.Add(2)
		go func() {
			defer wg.Done()
			cl := client.New(ts.URL, client.WithRetries(0))
			for k, lsn := 0, uint64(1); ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				rows := testStream(32, uint64(9000+k))
				core.SortByY(rows)
				payload, err := appendIngest(nil, []tenantBatch{{key: []byte("site"), tuples: rows}})
				if err != nil {
					t.Error(err)
					return
				}
				body := client.AppendForwardRecord(nil, lsn, uint8(wal.RecordIngest), payload)
				if mark, err := cl.Forward(ctx, 0xfee, wal.Version, 0, body); err == nil && mark == lsn {
					ackedForwards = append(ackedForwards, rows)
					lsn++
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					svc.Snapshot() // a failed marker only delays pruning
				}
			}
		}()
		cl := client.New(ts.URL, client.WithChunkSize(perBatch), client.WithRetries(0))
		var ackedBatches []uint64
		for i := 0; i < batches; i++ {
			seed := uint64(round*1000 + i)
			if cl.AddBatch(ctx, testStream(perBatch, seed)) == nil {
				ackedBatches = append(ackedBatches, seed)
			}
		}
		close(stop)
		wg.Wait()
		crash(ts, svc)
		inj.SetPlan(nil) // the disk heals before the restart

		svc2, err := New(cfg)
		if err != nil {
			t.Fatalf("round %d: restart: %v", round, err)
		}
		// What the log alone holds: every retained record, applied to an
		// empty server (nothing is pruned — no segment ever seals here).
		logOnly, err := New(Config{Options: o, WALDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		st := &replayState{fallback: true} // the markers are not this server's: no staleness witness
		err = svc2.wal.Replay(0, func(lsn uint64, typ wal.RecordType, payload []byte) error {
			_, aerr := logOnly.applyRecord(lsn, typ, payload, st)
			return aerr
		})
		if err != nil {
			t.Fatalf("round %d: replaying the log: %v", round, err)
		}

		// The oracle: exactly the acknowledged operations, in order.
		want := map[string]Engine{}
		for _, name := range []string{"", "site"} {
			if want[name], err = correlated.NewF2Summary(o); err != nil {
				t.Fatal(err)
			}
		}
		for _, seed := range ackedBatches {
			if err := want[""].AddBatch(testStream(perBatch, seed)); err != nil {
				t.Fatal(err)
			}
		}
		for _, rows := range ackedForwards {
			if err := want["site"].AddBatch(rows); err != nil {
				t.Fatal(err)
			}
		}
		for name, eng := range want {
			img, err := eng.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				what string
				srv  *Server
			}{{"the log", logOnly}, {"the restarted server", svc2}} {
				if name != "" && len(ackedForwards) == 0 {
					if got.srv.tenantByName(name) != nil {
						t.Fatalf("round %d: %s holds a forward to tenant %q; none was acknowledged", round, got.what, name)
					}
					continue
				}
				if b := tenantBytes(t, got.srv, name); !bytes.Equal(b, img) {
					t.Fatalf("round %d: tenant %q: %s holds %d tuples, the %d acked batches and %d acked forwards make %d (%d vs %d bytes)",
						round, name, got.what, got.srv.tenantByName(name).eng.Count(), len(ackedBatches), len(ackedForwards), eng.Count(), len(b), len(img))
				}
			}
		}
		logOnly.Close()
		svc2.Close()
	}
}
