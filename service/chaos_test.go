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
	if err := cl.Push(ctx, []byte{0}); !client.IsDegraded(err) {
		t.Fatalf("degraded push error not IsDegraded: %v", err)
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
	// ingest and the push after it were refused as degraded.
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

// TestChaosBackgroundFsyncDegrades: under -wal-fsync=interval the ack
// path never fsyncs, so a dying disk surfaces only through the
// background sync loop's errors — which must escalate into the health
// machine instead of scrolling past in the logs.
func TestChaosBackgroundFsyncDegrades(t *testing.T) {
	cfg, inj := chaosConfig(t)
	cfg.WALFsync = "interval"
	cfg.WALFsyncInterval = 5 * time.Millisecond
	svc, ts, _ := newTestServer(t, cfg)
	cl := client.New(ts.URL, client.WithChunkSize(512), client.WithRetries(0))
	ctx := context.Background()

	if err := cl.AddBatch(ctx, testStream(500, 1)); err != nil {
		t.Fatal(err)
	}
	inj.SetPlan(mustPlan(t, "sync/wal-:err@1+"))
	// Keep the log dirty so every ticker fire attempts (and fails) an
	// fsync; the error streak must trip the degraded transition.
	deadline := time.Now().Add(10 * time.Second)
	for !svc.healthDegraded() && time.Now().Before(deadline) {
		cl.AddBatch(ctx, testStream(10, 2))
		time.Sleep(5 * time.Millisecond)
	}
	if !svc.healthDegraded() {
		t.Fatal("background fsync error streak did not degrade the server")
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALSyncErrors == 0 {
		t.Fatalf("stats do not expose the background sync errors: %+v", st)
	}
	if v := metricValue(t, scrape(t, ts.URL), "corrd_wal_sync_errors_total"); v < float64(st.WALSyncErrors) {
		t.Fatalf("corrd_wal_sync_errors_total %v, stats read %d before it", v, st.WALSyncErrors)
	}
	inj.SetPlan(nil)
	// The background prober (healthProbeInterval cadence) heals it
	// without any admin intervention.
	waitUntil(t, 10*time.Second, "background recovery", func() bool {
		return !svc.healthDegraded()
	})
	if err := cl.AddBatch(ctx, testStream(100, 3)); err != nil {
		t.Fatalf("ingest after background recovery: %v", err)
	}
}

// TestChaosFsyncStreakResets pins what resets the WAL error streak. Under
// -wal-fsync=interval a clean fsync does and a clean append does not: the
// appends acknowledged between two failing interval barriers say nothing
// about the disk, and if they reset the streak a dead disk would never
// degrade the server. Under off, where nothing ever fsyncs, a clean append
// is all the evidence there is. The ticker is parked (an hour) and the test
// queues the barrier jobs it would.
func TestChaosFsyncStreakResets(t *testing.T) {
	ctx := context.Background()
	barrier := func(svc *Server) error { return svc.commit(&ingestJob{op: opBarrier}) }

	cfg, inj := chaosConfig(t)
	cfg.WALFsync, cfg.WALFsyncInterval = "interval", time.Hour
	svc, _, cl := newTestServer(t, cfg)
	inj.SetPlan(mustPlan(t, "sync/wal-:err@1+"))
	for want := int32(1); want <= healthFailThreshold; want++ {
		if err := cl.AddBatch(ctx, testStream(50, uint64(want))); err != nil {
			t.Fatalf("interval: an append between failing barriers was refused: %v", err)
		}
		if err := barrier(svc); err == nil {
			t.Fatal("interval: barrier under sync fault: want error")
		}
		if got := svc.health.walErrs.Load(); got != want {
			t.Fatalf("interval: streak %d after %d failed barriers with clean appends between them", got, want)
		}
	}
	if !svc.healthDegraded() {
		t.Fatal("interval: the failing barriers did not degrade the server")
	}
	inj.SetPlan(nil)
	if err := svc.recoverNow(); err != nil {
		t.Fatal(err)
	}
	inj.SetPlan(mustPlan(t, "sync/wal-:err@1"))
	if err := cl.AddBatch(ctx, testStream(50, 9)); err != nil {
		t.Fatal(err)
	}
	if err := barrier(svc); err == nil || svc.health.walErrs.Load() != 1 {
		t.Fatalf("interval: one failed barrier: err %v, streak %d", err, svc.health.walErrs.Load())
	}
	if err := barrier(svc); err != nil || svc.health.walErrs.Load() != 0 {
		t.Fatalf("interval: a clean fsync left the streak at %d (err %v)", svc.health.walErrs.Load(), err)
	}

	cfg, inj = chaosConfig(t)
	cfg.WALFsync = "off"
	svc, _, cl = newTestServer(t, cfg)
	if err := cl.AddBatch(ctx, testStream(50, 1)); err != nil {
		t.Fatal(err)
	}
	inj.SetPlan(mustPlan(t, "sync/wal-:err@1"))
	if err := barrier(svc); err == nil || svc.health.walErrs.Load() != 1 {
		t.Fatalf("off: one failed barrier: err %v, streak %d", err, svc.health.walErrs.Load())
	}
	if err := cl.AddBatch(ctx, testStream(50, 2)); err != nil || svc.health.walErrs.Load() != 0 {
		t.Fatalf("off: a clean append left the streak at %d (err %v)", svc.health.walErrs.Load(), err)
	}
}

// TestChaosFailedBarrierNacksItsDemanders: one commit group, an ingest
// batch beside a barrier job, and the barrier's fsync fails. Under
// -wal-fsync=always the failed Sync rewound the batch's record, so both are
// nacked and a restart does not see the batch. Under interval and off it
// rewound nothing: the batch was acknowledged without a barrier, as it
// would have been in a group of its own, and only the job that demanded
// the barrier fails — the batch is in the engine, in the log, and in the
// restarted server.
func TestChaosFailedBarrierNacksItsDemanders(t *testing.T) {
	for _, policy := range []string{"always", "interval", "off"} {
		t.Run(policy, func(t *testing.T) {
			cfg, inj := chaosConfig(t)
			cfg.SnapshotPath = ""
			cfg.WALFsync, cfg.WALFsyncInterval = policy, time.Hour // the test's barrier is the only one
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
			wantKind, wantCount := ingestOK, uint64(300)
			if policy == "always" {
				wantKind, wantCount = ingestErrWAL, 0
			}
			if batch.kind != wantKind || (batch.lsn != 0) != (wantKind == ingestOK) {
				t.Fatalf("the ingest member beside it: kind %d lsn %d, want kind %d", batch.kind, batch.lsn, wantKind)
			}
			crash(nil, svc)
			svc2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Close()
			if got := svc2.Engine().Count(); got != wantCount {
				t.Fatalf("restarted server holds %d tuples, want %d", got, wantCount)
			}
		})
	}
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
	data, err := os.ReadFile(cfg.SnapshotPath)
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
// live state nor a snapshot. An ingest, a push to a tenant that exists and
// a push that would make a tenant are each nacked by a failed fsync: the
// served summaries do not move, no tenant is made, and a snapshot taken
// after the nacks, with the log behind it, restarts to exactly the acked
// writes.
func TestChaosNackedWriteLeavesNoTrace(t *testing.T) {
	cfg, inj := chaosConfig(t)
	svc, ts, _ := newTestServer(t, cfg)
	ctx := context.Background()
	tenants := []string{"", "acme"}
	writer := func(url, tenant string) *client.Client {
		return client.New(url, client.WithTenant(tenant), client.WithRetries(0))
	}
	image := func(seed uint64) []byte {
		site, err := correlated.NewF2Summary(cfg.Options)
		if err != nil {
			t.Fatal(err)
		}
		if err := site.AddBatch(testStream(200, seed)); err != nil {
			t.Fatal(err)
		}
		img, err := site.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return img
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
	if err := writer(ts.URL, "acme").Push(ctx, image(2)); err != nil {
		t.Fatal(err)
	}
	acked := summaries(ts.URL)

	for _, nacked := range []struct {
		what  string
		write func() error
	}{
		{"an ingest", func() error { return writer(ts.URL, "").AddBatch(ctx, testStream(300, 3)) }},
		{"a push", func() error { return writer(ts.URL, "acme").Push(ctx, image(4)) }},
		{"a push to a new tenant", func() error { return writer(ts.URL, "fresh").Push(ctx, image(5)) }},
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
	if svc.tenantByName("fresh") != nil {
		t.Fatal("a nacked push made its tenant")
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
		t.Fatal("the restarted server holds the tenant a nacked push named")
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
	inj.SetPlan(mustPlan(t, "create/corrd.snapshot:err@1"))
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

	if _, err := os.Stat(cfg.SnapshotPath + ".1"); err != nil {
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
	flip(cfg.SnapshotPath)

	svc2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart with corrupt newest snapshot: %v", err)
	}
	t.Cleanup(func() { svc2.Close() })
	if !svc2.Restored() {
		t.Fatal("fallback restore did not report restored")
	}
	if !svc2.snapFellBack {
		t.Fatal("restore did not record the retention fallback")
	}
	if svc2.walReplayed == 0 {
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
	flip(cfg.SnapshotPath + ".1")
	if _, err := New(cfg); err == nil {
		t.Fatal("startup served an empty engine over two corrupt snapshots")
	}
}

// TestChaosDegradedPrimaryReplication: a primary whose disk breaks
// degrades without poisoning its replica. The replication link stays
// attached through the degraded window, the nacked (rewound) records
// never ship — the followable frontier freezes at the last acked LSN —
// and once the disk heals and recovery passes, new acked records flow
// again and the replica converges byte-exactly. Promoting the replica
// then yields a server whose state is byte-identical to the primary's
// acked history, proving failover away from a degraded primary loses
// nothing.
func TestChaosDegradedPrimaryReplication(t *testing.T) {
	cfg, inj := chaosConfig(t)
	cfg.HeartbeatInterval = 20 * time.Millisecond
	svc, ts, cl := newTestServer(t, cfg)
	addr := startStream(t, svc)
	replicaSvc, rts := newReplica(t, cfg.Options, addr, func(c *Config) {
		c.WALDir = t.TempDir()
		c.WALFsync = "always"
	})
	ctx := context.Background()
	acme := client.New(ts.URL, client.WithTenant("acme"))

	if err := cl.AddBatch(ctx, testStream(800, 1)); err != nil {
		t.Fatal(err)
	}
	if err := acme.AddBatch(ctx, testStream(600, 2)); err != nil {
		t.Fatal(err)
	}
	acked := svc.walRef().LastLSN()
	waitUntil(t, 10*time.Second, "replica catch-up before the fault", func() bool {
		return replicaSvc.appliedLSN.Load() >= acked
	})

	// Break every fsync: ingests fail until the primary trips degraded.
	// Each failed group is rewound out of the log, so the durable
	// frontier — the only thing Follow ships — must not move.
	inj.SetPlan(mustPlan(t, "sync/wal-:err@1+"))
	var lastErr error
	for i := 0; i < healthFailThreshold+2 && !svc.healthDegraded(); i++ {
		lastErr = cl.AddBatch(ctx, testStream(10, uint64(70+i)))
	}
	if !svc.healthDegraded() {
		t.Fatalf("primary did not degrade after repeated wal failures (last: %v)", lastErr)
	}
	if got := svc.walRef().FollowableLSN(); got != acked {
		t.Fatalf("degraded primary's followable frontier moved: %d, want %d (nacked records must not ship)", got, acked)
	}
	if got := replicaSvc.appliedLSN.Load(); got != acked {
		t.Fatalf("replica applied LSN %d, want %d — it saw records the primary nacked", got, acked)
	}
	// The link itself survives the degraded window: the follower is
	// still counted on the primary's metrics surface.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "corrd_replica_conns 1") {
		t.Fatal("degraded primary dropped its replica connection")
	}

	// Disk heals; recovery probes pass; acked traffic flows to the
	// replica again.
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
	last := svc.walRef().LastLSN()
	waitUntil(t, 10*time.Second, "replica catch-up after recovery", func() bool {
		return replicaSvc.appliedLSN.Load() >= last
	})

	// The replica's contract is "byte-identical to the acked history",
	// and so is the live primary's: the batches that tripped degradation
	// were rewound out of the log and never applied.
	for _, tenant := range []string{"", "acme"} {
		want, err := client.New(ts.URL, client.WithTenant(tenant)).Summary(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.New(rts.URL, client.WithTenant(tenant)).Summary(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("tenant %q: replica differs from the primary's acked history (%d vs %d bytes)", tenant, len(got), len(want))
		}
	}

	// Failover: the promoted replica carries the acked history and takes
	// writes, continuing the LSN space past everything it applied.
	if err := replicaSvc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	rcl := client.New(rts.URL)
	if err := rcl.AddBatch(ctx, testStream(100, 9)); err != nil {
		t.Fatalf("promoted replica refused a write: %v", err)
	}
	stats, err := rcl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Role != "coordinator" || !stats.Promoted {
		t.Fatalf("promoted stats wrong: role=%q promoted=%v", stats.Role, stats.Promoted)
	}
}

// TestChaosConcurrentWriters: the fault matrix above has one sequential
// writer per case; this one has every class of log writer at once — a
// sequential ingest client on the default tenant, a push loop to a second
// tenant, a Snapshot() loop (the checkpoint marker) — under a disk whose
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
	images := make([][]byte, 8)
	for k := range images {
		site, err := correlated.NewF2Summary(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := site.AddBatch(testStream(32, uint64(9000+k))); err != nil {
			t.Fatal(err)
		}
		if images[k], err = site.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
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
		var ackedPushes []int
		wg.Add(2)
		go func() {
			defer wg.Done()
			cl := client.New(ts.URL, client.WithTenant("site"), client.WithRetries(0))
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if cl.Push(ctx, images[k%len(images)]) == nil {
					ackedPushes = append(ackedPushes, k%len(images))
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
		logOnly, err := New(Config{Options: o})
		if err != nil {
			t.Fatal(err)
		}
		st := newReplayState(0, false) // the markers are not this server's
		err = svc2.walRef().Replay(0, func(lsn uint64, typ wal.RecordType, payload []byte) error {
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
		for _, k := range ackedPushes {
			if err := want["site"].MergeMarshaled(images[k]); err != nil {
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
				if name != "" && len(ackedPushes) == 0 {
					if got.srv.tenantByName(name) != nil {
						t.Fatalf("round %d: %s holds a push to tenant %q; none was acknowledged", round, got.what, name)
					}
					continue
				}
				if b := tenantBytes(t, got.srv, name); !bytes.Equal(b, img) {
					t.Fatalf("round %d: tenant %q: %s holds %d tuples, the %d acked batches and %d acked pushes make %d (%d vs %d bytes)",
						round, name, got.what, got.srv.tenantByName(name).eng.Count(), len(ackedBatches), len(ackedPushes), eng.Count(), len(b), len(img))
				}
			}
		}
		logOnly.Close()
		svc2.Close()
	}
}
