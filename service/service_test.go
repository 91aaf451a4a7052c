package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// testOptions keeps streams in the singleton regime (distinct y values
// below Alpha), where merge-then-query is bit-identical to a single
// whole-stream summary — the regime where "identical to an offline
// summary" is an exact float comparison, not a tolerance.
func testOptions() correlated.Options {
	return correlated.Options{
		Eps: 0.2, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 14,
		Alpha: 512, Seed: 7, Predicate: correlated.Both,
	}
}

const distinctY = 300 // < Alpha: singleton regime

func testStream(n int, seed uint64) []correlated.Tuple {
	rng := hash.New(seed)
	batch := make([]correlated.Tuple, n)
	for i := range batch {
		batch[i] = correlated.Tuple{X: rng.Uint64n(1 << 12), Y: rng.Uint64n(distinctY), W: 1}
	}
	return batch
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts, client.New(ts.URL, client.WithChunkSize(777))
}

// TestIngestQueryStatsRoundTrip: tuples ingested over HTTP answer
// queries identically to an offline summary built from the same stream
// with the same seed, and /v1/stats reflects the traffic.
func TestIngestQueryStatsRoundTrip(t *testing.T) {
	o := testOptions()
	_, _, cl := newTestServer(t, Config{Options: o})
	stream := testStream(10_000, 42)
	if err := cl.AddBatch(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	offline, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := offline.AddBatch(append([]correlated.Tuple(nil), stream...)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []uint64{0, 50, 150, distinctY, 1 << 15} {
		want, err := offline.QueryLE(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.QueryLE(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("LE c=%d: service %v offline %v", c, got, want)
		}
		wantGE, err := offline.QueryGE(c)
		if err != nil {
			t.Fatal(err)
		}
		gotGE, err := cl.QueryGE(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if gotGE != wantGE {
			t.Fatalf("GE c=%d: service %v offline %v", c, gotGE, wantGE)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != uint64(len(stream)) || st.TuplesIngested != uint64(len(stream)) {
		t.Fatalf("stats: %+v", st)
	}
	if st.Role != "coordinator" || st.Aggregate != "f2" {
		t.Fatalf("stats identity: %+v", st)
	}
	if st.QueriesServed == 0 || st.Space <= 0 {
		t.Fatalf("stats counters: %+v", st)
	}
}

// TestIngestTextFormat: the curl-friendly text body works and bad lines
// reject the whole batch atomically.
func TestIngestTextFormat(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{Options: testOptions()})
	body := "# comment\n1,10\n2,20,3\n\n3,30\n"
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text ingest: HTTP %d", resp.StatusCode)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 3 { // three records (weights do not inflate Count)
		t.Fatalf("count after text ingest: %d", st.Count)
	}
	resp, err = http.Post(ts.URL+"/v1/ingest", "text/csv", strings.NewReader("1,2\nnope\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad line: HTTP %d", resp.StatusCode)
	}
	if st, _ = cl.Stats(context.Background()); st.Count != 3 {
		t.Fatalf("rejected batch changed count: %d", st.Count)
	}
}

// TestPushPathBitIdentical: a site image pushed through /v1/push yields
// query answers identical to offline MergeMarshaled of the same image,
// and the served /v1/summary re-marshals to the offline bytes.
func TestPushPathBitIdentical(t *testing.T) {
	o := testOptions()
	_, _, cl := newTestServer(t, Config{Options: o})
	site, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := site.AddBatch(testStream(5_000, 99)); err != nil {
		t.Fatal(err)
	}
	img, err := site.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.Push(ctx, img); err != nil {
		t.Fatal(err)
	}
	offline, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := offline.MergeMarshaled(img); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint64{0, 100, distinctY, 1 << 15} {
		want, err1 := offline.QueryLE(c)
		got, err2 := cl.QueryLE(ctx, c)
		if err1 != nil || err2 != nil {
			t.Fatalf("c=%d: %v / %v", c, err1, err2)
		}
		if got != want {
			t.Fatalf("c=%d: pushed %v offline %v", c, got, want)
		}
	}
	served, err := cl.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	offlineImg, err := offline.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, offlineImg) {
		t.Fatalf("served summary differs from offline merge (%d vs %d bytes)", len(served), len(offlineImg))
	}
	// Garbage push: 400, engine untouched.
	if err := cl.Push(ctx, []byte{1, 2, 3}); err == nil {
		t.Fatal("garbage push accepted")
	}
	// Incompatible push (different seed): 409, detectable via helper.
	o2 := o
	o2.Seed++
	foreign, err := correlated.NewF2Summary(o2)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := foreign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Push(ctx, bad)
	if !client.IsIncompatible(err) {
		t.Fatalf("incompatible push: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != site.Count() || st.PushesMerged != 1 {
		t.Fatalf("stats after rejected pushes: %+v", st)
	}
}

// TestSnapshotCrashRecovery is the durability contract: snapshot, keep
// ingesting, crash without a graceful shutdown — the restarted server
// resumes from the snapshot with a bit-identical marshaled state.
func TestSnapshotCrashRecovery(t *testing.T) {
	o := testOptions()
	snap := filepath.Join(t.TempDir(), "corrd.snapshot")
	cfg := Config{
		Options:      o,
		SnapshotPath: snap, SnapshotInterval: time.Hour, // only explicit snapshots
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	cl := client.New(ts.URL)
	ctx := context.Background()
	if err := cl.AddBatch(ctx, testStream(6_000, 5)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snapFile, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	_, images, _, err := decodeSnapshot(snapFile)
	if err != nil || len(images) != 1 || images[0].name != "" {
		t.Fatalf("snapshot file holds %d images (err %v), want the default tenant's", len(images), err)
	}
	snapBytes := images[0].image
	wantLE, err := cl.QueryLE(ctx, 150)
	if err != nil {
		t.Fatal(err)
	}
	// Keep ingesting past the snapshot, then crash: no final snapshot
	// is written — disk still holds the old image, exactly like a
	// SIGKILL mid-ingest.
	if err := cl.AddBatch(ctx, testStream(2_000, 6)); err != nil {
		t.Fatal(err)
	}
	crash(ts, svc)

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if !svc2.Restored() {
		t.Fatal("restart did not restore from snapshot")
	}
	img, err := svc2.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, snapBytes) {
		t.Fatalf("restored state is not bit-identical to the snapshot image (%d vs %d bytes)",
			len(img), len(snapBytes))
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	cl2 := client.New(ts2.URL)
	got, err := cl2.QueryLE(ctx, 150)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantLE {
		t.Fatalf("post-restore query %v, pre-crash %v", got, wantLE)
	}
	st, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 6_000 || !st.Restored {
		t.Fatalf("post-restore stats: %+v", st)
	}
}

// TestGracefulShutdownFlush: Close commits what the pipeline holds and
// writes a final snapshot, so a restart serves every accepted tuple.
func TestGracefulShutdownFlush(t *testing.T) {
	o := testOptions()
	snap := filepath.Join(t.TempDir(), "corrd.snapshot")
	cfg := Config{
		Options:      o,
		SnapshotPath: snap, SnapshotInterval: time.Hour,
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	if err := client.New(srv.URL).AddBatch(context.Background(), testStream(500, 3)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	n := svc2.Engine().Count()
	if n != 500 {
		t.Fatalf("restart after graceful shutdown: count %d, want 500", n)
	}
}

// TestHealthzAndMetrics: liveness and the Prometheus exposition.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{Options: testOptions()})
	ctx := context.Background()
	if err := cl.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch(ctx, testStream(100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryLE(ctx, 10); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"corrd_tuples_ingested_total 100",
		`corrd_queries_served_total{op="le"} 1`,
		"corrd_engine_tuples 100",
		`corrd_http_request_duration_seconds_count{handler="ingest"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestQueryErrorMapping: misuse is 400, the paper's FAIL is 503.
func TestQueryErrorMapping(t *testing.T) {
	o := testOptions()
	o.Predicate = correlated.LE // GE disabled
	_, ts, cl := newTestServer(t, Config{Options: o})
	ctx := context.Background()
	var ae *client.APIError
	if _, err := cl.QueryGE(ctx, 5); !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("disabled direction: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/query?op=weird&c=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/query?op=le&c=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cutoff: HTTP %d", resp.StatusCode)
	}
}

func asAPIError(err error, ae **client.APIError) bool { return errors.As(err, ae) }

// walConfig is the standard durable-ingest test configuration: WAL with
// fsync=always plus a snapshot path whose ticker never fires, so every
// recovery path exercises the log.
func walConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		Options:      testOptions(),
		SnapshotPath: filepath.Join(dir, "corrd.snapshot"), SnapshotInterval: time.Hour,
		WALDir: filepath.Join(dir, "wal"), WALFsync: "always",
	}
}

// crash simulates kill -9 for an in-process server: drop the listener
// (when there is one) and stop the background loops — a dead process
// must not keep snapshotting, checkpointing or probing files the
// restarted server now owns. No drain, no final snapshot, no WAL close:
// the disk is left exactly as a SIGKILL would leave it. The transfer
// lock is taken and never released, so no snapshot is in flight when
// crash returns and none can start afterwards; a later Close is a no-op.
// A site's forwarder makes one last attempt and stops: a test that wants
// records left unforwarded takes the coordinator away first.
func crash(ts *httptest.Server, svc *Server) {
	if ts != nil {
		ts.Close()
	}
	svc.lifeMu.Lock()
	if !svc.closed {
		svc.closed = true
		svc.closing.Store(true)
		close(svc.done)
		if svc.fwd != nil {
			svc.fwd.drain()
		}
	}
	svc.lifeMu.Unlock()
	svc.xferMu.Lock()
}

// TestWALCrashRecoveryExact is the acceptance contract: a server killed
// without warning restarts — restore snapshot, replay WAL suffix — to
// a summary byte-identical to a crash-free oracle that performed the
// same acknowledged operations.
func TestWALCrashRecoveryExact(t *testing.T) {
	o := testOptions()
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	cl := client.New(ts.URL, client.WithChunkSize(512))
	ctx := context.Background()

	// Phase 1: ingest, then snapshot (covers a WAL prefix and prunes).
	s1 := testStream(2_999, 11)
	if err := cl.AddBatch(ctx, s1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: more ingest plus a push image — the replay suffix.
	s2 := testStream(2_000, 12)
	if err := cl.AddBatch(ctx, s2); err != nil {
		t.Fatal(err)
	}
	site, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	s3 := testStream(1_000, 13)
	if err := site.AddBatch(append([]correlated.Tuple(nil), s3...)); err != nil {
		t.Fatal(err)
	}
	img, err := site.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Push(ctx, img); err != nil {
		t.Fatal(err)
	}
	crash(ts, svc)

	// Restart: snapshot + suffix replay.
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if !svc2.Restored() {
		t.Fatal("restart did not restore the snapshot")
	}
	if svc2.walReplayed == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	got, err := svc2.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Crash-free oracle: the same configuration fed the same
	// acknowledged operations, never killed.
	oracle, err := New(walConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	ots := httptest.NewServer(oracle.Handler())
	defer ots.Close()
	ocl := client.New(ots.URL, client.WithChunkSize(512))
	if err := ocl.AddBatch(ctx, s1); err != nil {
		t.Fatal(err)
	}
	if err := ocl.AddBatch(ctx, s2); err != nil {
		t.Fatal(err)
	}
	if err := ocl.Push(ctx, img); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered summary differs from crash-free oracle (%d vs %d bytes)",
			len(got), len(want))
	}

	// The recovered server keeps serving: /v1/summary equals the oracle
	// bytes over HTTP too, and new ingest still works.
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	cl2 := client.New(ts2.URL)
	served, err := cl2.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatal("served /v1/summary differs from oracle after recovery")
	}
	if err := cl2.AddBatch(ctx, testStream(100, 14)); err != nil {
		t.Fatal(err)
	}
	st, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.WALEnabled || st.WALReplayRecords == 0 || st.WALLastLSN == 0 {
		t.Fatalf("wal stats after recovery: %+v", st)
	}
}

// TestWALRecoveryWithoutSnapshot: with no snapshot ever written, the
// whole log replays into a fresh engine.
func TestWALRecoveryWithoutSnapshot(t *testing.T) {
	cfg := Config{
		Options: testOptions(),
		WALDir:  filepath.Join(t.TempDir(), "wal"), WALFsync: "always",
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	cl := client.New(ts.URL)
	stream := testStream(1_500, 21)
	if err := cl.AddBatch(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	want, err := svc.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	crash(ts, svc)
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if svc2.Restored() {
		t.Fatal("no snapshot existed, yet Restored reports true")
	}
	got, err := svc2.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("pure-WAL recovery differs from pre-crash state")
	}
}

// TestMultiCutoffQuery: repeated c= values come back in one response,
// each answer identical to its single-cutoff counterpart.
func TestMultiCutoffQuery(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{Options: testOptions()})
	ctx := context.Background()
	if err := cl.AddBatch(ctx, testStream(5_000, 51)); err != nil {
		t.Fatal(err)
	}
	cutoffs := []uint64{0, 10, 50, 100, 200, distinctY, 1 << 15}
	got, err := cl.QueryBatch(ctx, "le", cutoffs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cutoffs) {
		t.Fatalf("%d results for %d cutoffs", len(got), len(cutoffs))
	}
	for i, c := range cutoffs {
		want, err := cl.QueryLE(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].C != c || got[i].Estimate != want || got[i].Op != "le" {
			t.Fatalf("cutoff %d: batch %+v, single %v", c, got[i], want)
		}
	}
	// Single-cutoff QueryBatch keeps the single-result wire shape.
	one, err := cl.QueryBatch(ctx, "ge", cutoffs[:1])
	if err != nil || len(one) != 1 || one[0].Op != "ge" {
		t.Fatalf("single-cutoff batch: %v %+v", err, one)
	}
	// A bad cutoff rejects the whole request.
	resp, err := http.Get(ts.URL + "/v1/query?op=le&c=1&c=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cutoff in batch: HTTP %d", resp.StatusCode)
	}
}

// TestWALMetricsExposed: the Prometheus exposition carries the WAL
// family when (and only when) the WAL is on.
func TestWALMetricsExposed(t *testing.T) {
	_, ts, cl := newTestServer(t, walConfig(t))
	ctx := context.Background()
	if err := cl.AddBatch(ctx, testStream(100, 61)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"corrd_wal_segments 1",
		"corrd_wal_appends_total 1",
		"corrd_wal_fsyncs_total",
		"corrd_wal_fsync_duration_seconds_count",
		`corrd_wal_fsync_duration_seconds_bucket{le="+Inf"}`,
		"corrd_wal_last_lsn 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	_, ts2, _ := newTestServer(t, Config{Options: testOptions()})
	resp2, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if strings.Contains(string(raw2), "corrd_wal_") {
		t.Fatal("WAL metrics exposed without a WAL")
	}
}

// TestWALRefusesStaleSnapshot: the log's checkpoint markers witness
// that a snapshot covering LSN N existed; if the restored snapshot
// covers less (deleted, replaced, or written during a WAL-less run),
// startup must refuse instead of double-applying the retained log.
func TestWALRefusesStaleSnapshot(t *testing.T) {
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	cl := client.New(ts.URL)
	ctx := context.Background()
	if err := cl.AddBatch(ctx, testStream(500, 81)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Snapshot(); err != nil { // writes the checkpoint marker
		t.Fatal(err)
	}
	if err := cl.AddBatch(ctx, testStream(100, 82)); err != nil {
		t.Fatal(err)
	}
	crash(ts, svc)
	if err := os.Remove(cfg.SnapshotPath); err != nil { // lose the snapshot
		t.Fatal(err)
	}
	svc2, err := New(cfg)
	if err == nil {
		svc2.Close()
		t.Fatal("startup over a checkpointed WAL with no snapshot must refuse")
	}
	if !strings.Contains(err.Error(), "stale or missing") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
}

// dirBytes reads every regular file under dir, keyed by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.Type().IsRegular() {
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return files
}

// TestPreBreakStateRefused: durable state written before a storage
// version break — a version-1, -2 or -3 log holding records, or a
// corrdsn1, corrdsn2, corrdsn3 or bare-image snapshot wherever restore would reach
// it — makes New fail with an error that wraps a sentinel, names the format
// found and the one expected, and points at the README. The refused start
// leaves every file exactly as it was and creates none beside them.
func TestPreBreakStateRefused(t *testing.T) {
	o := testOptions()
	eng, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddBatch(testStream(400, 91)); err != nil {
		t.Fatal(err)
	}
	image, err := eng.MarshalBinary() // a valid image: only the framing is old
	if err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T, cfg Config, stateDir string, sentinel error, says ...string) {
		t.Helper()
		before := dirBytes(t, stateDir)
		svc, err := New(cfg)
		if err == nil {
			svc.Close()
			t.Fatal("pre-break state was accepted")
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("refusal does not wrap %v: %v", sentinel, err)
		}
		for _, part := range append(says, "Storage format") {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("refusal does not say %q: %v", part, err)
			}
		}
		after := dirBytes(t, stateDir)
		if len(after) != len(before) {
			t.Fatalf("the refused start left %d files where there were %d", len(after), len(before))
		}
		for name, data := range before {
			if !bytes.Equal(after[name], data) {
				t.Fatalf("the refused start modified %s", name)
			}
		}
	}

	for _, old := range []struct {
		version byte
		record  func(i int) (wal.RecordType, []byte) // the i-th record, in that version's grammar
	}{
		// Frames did not change at any break, only the record grammar and
		// the header's version byte: write records, then stamp the version.
		// Version 1 logged under the retired group, keyed-group and
		// keyed-push numbers; version 2's ingest record was keyed batches in
		// client order; version 3 logged a site's push round (reset 3, ack
		// 5, fold-back 6).
		{1, func(i int) (wal.RecordType, []byte) {
			return wal.RecordType(7 + i), tupleio.AppendCountedBatch([]byte{1}, testStream(8, 92))
		}},
		{2, func(int) (wal.RecordType, []byte) {
			return wal.RecordIngest, tupleio.AppendKeyedBatch(nil, "a", testStream(8, 92))
		}},
		{3, func(i int) (wal.RecordType, []byte) {
			return []wal.RecordType{3, 5, 6}[i], image
		}},
	} {
		t.Run(fmt.Sprintf("version-%d log", old.version), func(t *testing.T) {
			dir := t.TempDir()
			w, err := wal.Open(dir, wal.Options{SegmentBytes: 64})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := w.AppendNoSync(old.record(i)); err != nil {
					t.Fatal(err)
				}
				if err := w.Sync(); err != nil { // a segment seals only behind a barrier
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			segs := dirBytes(t, dir)
			if len(segs) < 2 {
				t.Fatalf("%d segments, want a sealed one and the active one", len(segs))
			}
			for name, raw := range segs {
				raw[8] = old.version
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			refused(t, Config{Options: o, WALDir: dir}, dir, wal.ErrVersion, fmt.Sprintf("version %d,", old.version), "version 4 ")
		})
	}

	// corrdsn2 and corrdsn3 had today's layout under the older magic, less
	// the marks table at the end.
	sn3 := encodeSnapshot(7, []tenantImage{{name: "", image: image}, {name: "a", image: image}}, nil)
	sn3 = sn3[:len(sn3)-1]
	sn3[len(snapshotMagic)-1] = '3'
	sn2 := bytes.Clone(sn3)
	sn2[len(snapshotMagic)-1] = '2'
	for _, format := range []struct {
		name, found string
		file        []byte
	}{
		{"corrdsn1", `"corrdsn1"`, append(binary.AppendUvarint([]byte("corrdsn1"), 7), image...)},
		{"corrdsn2", `"corrdsn2"`, sn2},
		{"corrdsn3", `"corrdsn3"`, sn3},
		{"bare image", "no corrdsn header", image},
	} {
		for _, place := range []struct {
			name  string
			slots []int
		}{
			{"slot 0", []int{0}},
			{"every slot", []int{0, 1, 2}},
			{"slot 1 behind an empty slot 0", []int{1}},
		} {
			t.Run(format.name+" in "+place.name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{Options: o, SnapshotPath: filepath.Join(dir, "corrd.snapshot"), SnapshotKeep: 3}
				for _, i := range place.slots {
					path := cfg.SnapshotPath
					if i > 0 {
						path = fmt.Sprintf("%s.%d", path, i)
					}
					if err := os.WriteFile(path, format.file, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				refused(t, cfg, dir, ErrSnapshotFormat, format.found, `"corrdsn4"`)
			})
		}
	}
}
