package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// ingestOf is an ingest job for the tenant named key carrying tuples as a
// queued member carries them: a counted batch, with the count admission sets.
func ingestOf(key string, tuples []correlated.Tuple) *ingestJob {
	member := tupleio.AppendCountedBatch(nil, tuples)
	return &ingestJob{key: []byte(key), member: member, n: len(tuples), done: make(chan struct{}, 1)}
}

// newTestServer serves a New server over httptest and closes both at the
// test's end; a Config with no log gets its own t.TempDir().
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	if cfg.WALDir == "" {
		cfg.WALDir = t.TempDir()
	}
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
	if v := metricValue(t, scrape(t, ts.URL), "corrd_ingest_errors_total"); v != 1 {
		t.Fatalf("corrd_ingest_errors_total %v after one rejected batch, want 1", v)
	}
}

// TestSnapshotCrashRecovery is the durability contract: checkpoint, keep
// ingesting, crash without a graceful shutdown — the restarted server
// restores the checkpoint and replays the log past it, to a marshaled state
// bit-identical to the one the crash cut: every acknowledged tuple.
func TestSnapshotCrashRecovery(t *testing.T) {
	cfg := walConfig(t) // only explicit checkpoints
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
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	images := checkpointImages(t, svc)
	if len(images) != 1 || !bytes.Equal(images[""], tenantBytes(t, svc, "")) {
		t.Fatalf("the checkpoint holds %d images, want the default tenant's", len(images))
	}
	snapBytes := images[""]
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	body := scrape(t, ts.URL)
	if metricValue(t, body, "corrd_wal_checkpoints_total") != 1 ||
		metricValue(t, body, "corrd_snapshot_bytes") != float64(len(snapBytes)) ||
		st.LastSnapshot == 0 || metricValue(t, body, "corrd_snapshot_last_unix_seconds") != float64(st.LastSnapshot) {
		t.Fatalf("after one checkpoint of a %d-byte image (stats last_snapshot %d):\n%s", len(snapBytes), st.LastSnapshot, body)
	}
	// Keep ingesting past the checkpoint, then crash: no final checkpoint
	// is written — the log holds the checkpoint and what came after it,
	// exactly like a SIGKILL mid-ingest.
	if err := cl.AddBatch(ctx, testStream(2_000, 6)); err != nil {
		t.Fatal(err)
	}
	wantLE, err := cl.QueryLE(ctx, 150)
	if err != nil {
		t.Fatal(err)
	}
	want := tenantBytes(t, svc, "")
	crash(ts, svc)

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if n := svc2.metrics.walReplayRecords.Load(); !svc2.Restored() || n == 0 {
		t.Fatalf("restart restored a checkpoint %t, replayed %d records past it", svc2.Restored(), n)
	}
	img, err := svc2.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("recovered state is not bit-identical to the state the crash cut (%d vs %d bytes)",
			len(img), len(want))
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
	st, err = cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 8_000 || !st.Restored {
		t.Fatalf("post-restore stats: %+v", st)
	}
}

// TestGracefulShutdownFlush: Close commits what the pipeline holds and
// writes a final checkpoint, so a restart serves every accepted tuple.
func TestGracefulShutdownFlush(t *testing.T) {
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	if err := client.New(srv.URL).AddBatch(context.Background(), testStream(500, 3)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Close runs once: a concurrent call waits for the first, so each
	// returns with the final checkpoint in the log, and a later one is a
	// no-op.
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			err := svc.Close()
			if ck := svc.wal.LastCheckpoint(); err == nil && ck.LSN != svc.wal.LastLSN() {
				err = fmt.Errorf("the log ends at LSN %d past its final checkpoint %+v", svc.wal.LastLSN(), ck)
			}
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	// The final checkpoint holds every record: nothing is left to replay.
	if n, replayed := svc2.Engine().Count(), svc2.metrics.walReplayRecords.Load(); n != 500 || !svc2.Restored() || replayed != 0 {
		t.Fatalf("restart after graceful shutdown: count %d, want 500; restored %t, %d records replayed past the final checkpoint", n, svc2.Restored(), replayed)
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
	runtime.GC()
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
		`corrd_http_request_duration_seconds_count{handler="ingest"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	// The tuples the engine holds are /v1/stats' count.
	st, err := cl.Stats(ctx)
	if err != nil || st.Count != 100 {
		t.Fatalf("stats count %d (err %v), want 100", st.Count, err)
	}
	if up := metricValue(t, body, "corrd_uptime_seconds"); up < 0 || up > st.UptimeSeconds {
		t.Fatalf("corrd_uptime_seconds %v, stats read %v seconds later", up, st.UptimeSeconds)
	}
	// A collection ran before the scrape.
	if metricValue(t, body, "corrd_go_gcs_total") < 1 || metricValue(t, body, "corrd_go_gc_pause_total_seconds") <= 0 {
		t.Fatalf("GC series after runtime.GC:\n%s", body)
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
	if v := metricValue(t, scrape(t, ts.URL), "corrd_query_errors_total"); v != 3 {
		t.Fatalf("corrd_query_errors_total %v after three refused queries, want 3", v)
	}
}

func asAPIError(err error, ae **client.APIError) bool { return errors.As(err, ae) }

// walConfig is the standard durable-ingest test configuration: a state
// directory whose checkpoint ticker never fires, so only an explicit
// Checkpoint or Close writes one and every recovery path exercises the log.
func walConfig(t *testing.T) Config {
	t.Helper()
	return Config{Options: testOptions(), SnapshotInterval: time.Hour, WALDir: filepath.Join(t.TempDir(), "wal")}
}

// snapshotAt is where an earlier release kept its live snapshot in cfg's
// state directory: the file the import reads.
func snapshotAt(cfg Config) string { return filepath.Join(cfg.WALDir, snapshotFiles[0]) }

// stateWith returns a new state directory holding snapshot as an earlier
// release's live snapshot and no log: a directory the import takes.
func stateWith(t *testing.T, snapshot []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFiles[0]), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// crash simulates kill -9 for an in-process server: drop the listener
// (when there is one), stop the background loops and shut the commit
// pipeline — a dead process must not keep checkpointing, pruning or
// probing files the restarted server now owns. No drain, no final
// checkpoint, no WAL close: the disk is left as a SIGKILL would leave it,
// past the jobs already queued. crash takes Close's once, so a later Close
// is a no-op.
// A site's forwarder makes one last attempt and stops: a test that wants
// records left unforwarded takes the coordinator away first.
func crash(ts *httptest.Server, svc *Server) {
	if ts != nil {
		ts.Close()
	}
	svc.closeOnce.Do(func() {
		svc.closing.Store(true)
		close(svc.done)
		for _, f := range svc.fwds {
			f.drain()
		}
		svc.closePipeline()
	})
}

// TestWALCrashRecoveryExact is the acceptance contract: a server killed
// without warning restarts — restore snapshot, replay WAL suffix — to
// a summary byte-identical to a crash-free oracle that performed the
// same acknowledged operations.
func TestWALCrashRecoveryExact(t *testing.T) {
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
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: more ingest plus a site's forward — the replay suffix.
	s2 := testStream(2_000, 12)
	if err := cl.AddBatch(ctx, s2); err != nil {
		t.Fatal(err)
	}
	fwd := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, ""))
	if _, err := cl.Forward(ctx, 0xabc, wal.Version, 0, fwd); err != nil {
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
	if svc2.metrics.walReplayRecords.Load() == 0 {
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
	if _, err := ocl.Forward(ctx, 0xabc, wal.Version, 0, fwd); err != nil {
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
	if st.WALReplayRecords == 0 || st.WALLastLSN == 0 {
		t.Fatalf("wal stats after recovery: %+v", st)
	}
	if got := metricValue(t, scrape(t, ts2.URL), "corrd_wal_replay_duration_seconds"); st.WALReplaySeconds <= 0 || got != st.WALReplaySeconds {
		t.Fatalf("corrd_wal_replay_duration_seconds %v, /v1/stats wal_replay_seconds %v", got, st.WALReplaySeconds)
	}
}

// TestWALRecoveryWithoutSnapshot: with no snapshot ever written, the
// whole log replays into a fresh engine.
func TestWALRecoveryWithoutSnapshot(t *testing.T) {
	cfg := Config{
		Options: testOptions(),
		WALDir:  filepath.Join(t.TempDir(), "wal"),
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
		`corrd_wal_fsync_duration_seconds_bucket{le="+Inf"}`,
		"corrd_wal_last_lsn 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	// The fsync histogram counts every fsync the log made: /v1/stats'
	// wal_fsyncs.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, body, "corrd_wal_fsync_duration_seconds_count"); st.WALFsyncs == 0 || got != float64(st.WALFsyncs) {
		t.Fatalf("corrd_wal_fsync_duration_seconds_count %v, /v1/stats wal_fsyncs %d", got, st.WALFsyncs)
	}
	if got := metricValue(t, body, "corrd_wal_appended_bytes_total"); st.WALAppendedBytes == 0 || got != float64(st.WALAppendedBytes) {
		t.Fatalf("corrd_wal_appended_bytes_total %v, /v1/stats wal_appended_bytes %d", got, st.WALAppendedBytes)
	}
	// Every server has a log: New refuses a Config without one, by name.
	if svc, err := New(Config{Options: testOptions()}); err == nil || !strings.Contains(err.Error(), "WALDir is required") {
		if svc != nil {
			svc.Close()
		}
		t.Fatalf("New without a WALDir: %v, want the refusal naming WALDir", err)
	}
}

// TestWALRefusesStaleSnapshot: a log whose oldest record is not its first
// holds the records from a checkpoint on, so one whose oldest segments are
// lost — here the one holding its only checkpoint, which pruned everything
// before it — starts on records whose state before them is gone: startup
// refuses by name instead of serving them over an empty state.
func TestWALRefusesStaleSnapshot(t *testing.T) {
	cfg := walConfig(t)
	cfg.WALSegmentBytes = 1 // every commit group seals a segment of its own
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if err := svc.commit(ingestOf("", testStream(100, 81+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := svc.commit(ingestOf("", testStream(100, 90))); err != nil {
		t.Fatal(err)
	}
	ck := svc.wal.LastCheckpoint()
	crash(nil, svc)
	if oldest := svc.wal.OldestLSN(); oldest != ck.First {
		t.Fatalf("the log starts at LSN %d, want the checkpoint's first image %d", oldest, ck.First)
	}
	// Lose the segment holding the checkpoint.
	if err := os.Remove(filepath.Join(cfg.WALDir, fmt.Sprintf("wal-%016x.seg", ck.First))); err != nil {
		t.Fatal(err)
	}
	svc2, err := New(cfg)
	if err == nil {
		svc2.Close()
		t.Fatal("startup over a log that lost its checkpoint must refuse")
	}
	if !strings.Contains(err.Error(), "holds no whole checkpoint") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
}

// TestEmptyLogRefusesALostSnapshot: an earlier release let a server start
// on a copy of a snapshot and no log, and such a log, holding no record
// yet, was all that said which snapshot it continued. That state can no
// longer arise: the import writes the snapshot into the new log as its
// first checkpoint before the server serves, so a server killed before its
// first write restarts holding every tuple from its log alone, the file
// renamed out of the way.
func TestEmptyLogRefusesALostSnapshot(t *testing.T) {
	src := walConfig(t)
	svc, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.commit(ingestOf("", testStream(1_000, 1))); err != nil {
		t.Fatal(err)
	}
	image := tenantBytes(t, svc, "")
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Options: testOptions(), WALDir: stateWith(t, appendSnapshot(nil, []tenantImage{{image: image}}, nil))}
	boot, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := boot.Engine().Count(); n != 1_000 || boot.wal.LastCheckpoint().First != 1 {
		t.Fatalf("the server started on the snapshot holds %d of its 1000 tuples, its log's first checkpoint %+v", n, boot.wal.LastCheckpoint())
	}
	crash(nil, boot)
	if _, err := os.Stat(snapshotAt(cfg)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the imported snapshot is still in place: %v", err)
	}
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if n := svc2.Engine().Count(); n != 1_000 || !bytes.Equal(tenantBytes(t, svc2, ""), image) {
		t.Fatalf("a restart after the import holds %d of its 1000 tuples", n)
	}
}

// TestEveryServerCheckpoints: a server given only Options and a state
// directory checkpoints into its log at Close and on its ticker, restarts
// from the newest checkpoint with nothing to replay, and prunes its log's
// sealed segments behind that checkpoint's first image.
func TestEveryServerCheckpoints(t *testing.T) {
	cfg := Config{Options: testOptions(), WALDir: t.TempDir()}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if svc.cfg.SnapshotInterval != 30*time.Second {
		t.Fatalf("checkpoint interval %s, want the 30s default", svc.cfg.SnapshotInterval)
	}
	if err := svc.commit(ingestOf("", testStream(500, 1))); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if ck := svc.wal.LastCheckpoint(); ck.LSN == 0 || ck.LSN != svc.wal.LastLSN() {
		t.Fatalf("the log ends at LSN %d, its checkpoint after Close %+v", svc.wal.LastLSN(), ck)
	}
	restart := func(want uint64) *Server {
		t.Helper()
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n, replayed := svc.Engine().Count(), svc.metrics.walReplayRecords.Load(); n != want || !svc.Restored() || replayed != 0 {
			t.Fatalf("restart: count %d, want %d; restored %t, %d records replayed past the checkpoint", n, want, svc.Restored(), replayed)
		}
		return svc
	}
	if err := restart(500).Close(); err != nil {
		t.Fatal(err)
	}

	// On the ticker, with every commit group sealing a segment of its own. A
	// checkpoint follows new records: the log holds them since the last one.
	cfg.SnapshotInterval, cfg.WALSegmentBytes = 10*time.Millisecond, 1
	svc = restart(500)
	for round := uint64(0); round < 2; round++ {
		ticked := svc.wal.Stats().Checkpoints
		for i := uint64(0); i < 3; i++ {
			if err := svc.commit(ingestOf("", testStream(100, 10+3*round+i))); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, 10*time.Second, "a checkpoint on the ticker", func() bool {
			return svc.wal.Stats().Checkpoints > ticked
		})
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	ck := svc.wal.LastCheckpoint()
	var firsts []uint64
	for name := range dirBytes(t, cfg.WALDir) {
		var first uint64
		if _, err := fmt.Sscanf(name, "wal-%016x.seg", &first); err == nil {
			firsts = append(firsts, first)
		}
	}
	slices.Sort(firsts)
	if len(firsts) == 0 || firsts[0] == 1 || firsts[0] != ck.First {
		t.Fatalf("segments from LSNs %v: want the log pruned to the segment holding LSN %d, the newest checkpoint's first image", firsts, ck.First)
	}
	restart(1_100).Close()
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
// version break — a version-1 to -6 log holding records, or a corrdsn1,
// corrdsn2, corrdsn3 or bare-image snapshot wherever the import would read
// it — makes New fail with an error that wraps a sentinel, names the format
// found and the one expected, and points at the README. The refused start
// leaves every file exactly as it was and creates none beside them. A
// version-7 log can hold no type-2 record (an earlier format's push
// record): one is an unknown record type, which fails the start the same
// way, and a forward carrying one is refused whole, with a 400 naming it.
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
		// 5, fold-back 6); version 4 wrote a sorted batch's rows as uvarints;
		// version 5 Rice-coded every column and ended a member with a
		// weight-flag byte.
		{1, func(i int) (wal.RecordType, []byte) {
			return wal.RecordType(7 + i), tupleio.AppendCountedBatch([]byte{1}, testStream(8, 92))
		}},
		{2, func(int) (wal.RecordType, []byte) {
			return wal.RecordIngest, tupleio.AppendKeyedBatch(nil, "a", testStream(8, 92))
		}},
		{3, func(i int) (wal.RecordType, []byte) {
			return []wal.RecordType{3, 5, 6}[i], image
		}},
		{4, func(int) (wal.RecordType, []byte) {
			return wal.RecordIngest, append(append([]byte{0, 16}, bytes.Repeat([]byte{1, 3}, 16)...), 0) // rows as uvarints: y gap 1, x 3
		}},
		{5, func(int) (wal.RecordType, []byte) {
			// 32 rows Rice-coded at k_y = k_x = 0 (y gap 1, x 1), then the
			// weight-flag byte.
			return wal.RecordIngest, append(append([]byte{0, 32, 0, 0}, bytes.Repeat([]byte{0xaa}, 16)...), 0)
		}},
		{6, func(int) (wal.RecordType, []byte) {
			// Version 6's ingest record is version 7's; its checkpoints were
			// uvarint(covered) of a snapshot file.
			return wal.RecordIngest, ingestRecord(t, "a")
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
			refused(t, Config{Options: o, WALDir: dir}, dir, wal.ErrVersion, fmt.Sprintf("version %d,", old.version), fmt.Sprintf("version %d ", wal.Version))
		})
	}

	// corrdsn2 and corrdsn3 had today's layout under the older magic, less
	// the marks table at the end.
	sn3 := appendSnapshot(nil, []tenantImage{{name: "", image: image}, {name: "a", image: image}}, nil)
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
			{"every slot", []int{0, 1}},
			{"slot 1 behind an empty slot 0", []int{1}},
		} {
			t.Run(format.name+" in "+place.name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{Options: o, WALDir: dir}
				for _, i := range place.slots {
					path := snapshotAt(cfg)
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

	push := append(tupleio.AppendTenant(nil, "a"), image...) // a push record's payload
	t.Run("push record past the snapshot", func(t *testing.T) {
		cfg := walConfig(t)
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.commit(ingestOf("a", testStream(300, 93))); err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil { // the final checkpoint
			t.Fatal(err)
		}
		w, err := wal.Open(cfg.WALDir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AppendNoSync(wal.RecordType(2), push); err != nil {
			t.Fatal(err)
		}
		if err := cmp.Or(w.Sync(), w.Close()); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, cfg.WALDir)
		if svc, err := New(cfg); err == nil {
			svc.Close()
			t.Fatal("a type-2 record was applied")
		} else if !strings.Contains(err.Error(), "unknown record type 2") {
			t.Fatalf("a type-2 record past the checkpoint: %v, want unknown record type 2", err)
		}
		if after := dirBytes(t, cfg.WALDir); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Fatal("the refused start modified the state directory")
		}
	})

	t.Run("forwarded push record", func(t *testing.T) {
		svc, _, cl := newTestServer(t, Config{Options: o})
		body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, "b"))
		body = client.AppendForwardRecord(body, 2, 2, push)
		_, err := cl.Forward(context.Background(), 0xabc, wal.Version, 0, body)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(err.Error(), "site record 2: service: a forward carries ingest, image, checkpoint or forward records, not type 2") {
			t.Fatalf("a forward carrying a push record: %v; want a 400 naming it", err)
		}
		if svc.tenantByName("b") != nil || svc.tenantByName("a") != nil || svc.marks[0xabc] != 0 || svc.Engine().Count() != 0 {
			t.Fatalf("the refused forward applied something: tenants %d, mark %d, default count %d", len(svc.tenantList()), svc.marks[0xabc], svc.Engine().Count())
		}
	})
}

// TestSnapshotOntoEmptyLogKeepsAckedWrites: a server started on an earlier
// release's snapshot in an empty state directory — the way across the log
// format break — imports it as its new log's first checkpoint, so a crash
// replays every write acknowledged since on top of it. The log no longer
// continues the snapshot's LSN space: the import leaves nothing outside
// the log for its numbering to skip.
func TestSnapshotOntoEmptyLogKeepsAckedWrites(t *testing.T) {
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if err := svc.commit(ingestOf("", testStream(100, i))); err != nil {
			t.Fatal(err)
		}
	}
	image := tenantBytes(t, svc, "")
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.WALDir = stateWith(t, appendSnapshot(nil, []tenantImage{{image: image}}, nil))
	svc, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(5); i < 7; i++ {
		if err := svc.commit(ingestOf("", testStream(100, i))); err != nil {
			t.Fatal(err)
		}
	}
	acked := tenantBytes(t, svc, "")
	crash(nil, svc)
	svc, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Engine().Count(); got != 700 || !bytes.Equal(tenantBytes(t, svc, ""), acked) {
		t.Fatalf("after the crash the server holds %d of the 700 acknowledged tuples", got)
	}
}
