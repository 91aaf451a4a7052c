package service

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/fault"
	"github.com/streamagg/correlated/internal/wal"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newStandby builds a standby and serves its HTTP API.
func newStandby(t *testing.T, o correlated.Options, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Options: o, Standby: true}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, ts, _ := newTestServer(t, cfg)
	return svc, ts
}

// TestReplicaFollowsAndServesReads: a standby its primary forwards to holds
// the primary's exact per-tenant state, logged in its own WAL, serves the
// read path from it and says it is a replica. It refuses client writes: over
// HTTP with the 503 the client maps to IsReadOnly, on the stream with
// AckReadOnly.
func TestReplicaFollowsAndServesReads(t *testing.T) {
	o := testOptions()
	standby, sts := newStandby(t, o, func(c *Config) { c.WALDir = t.TempDir() })
	primary, pts, pcl := newTestServer(t, Config{Options: o, WALDir: t.TempDir(), PushTo: sts.URL})
	ctx := context.Background()
	if err := pcl.AddBatch(ctx, testStream(5_000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := client.New(pts.URL, client.WithTenant("acme")).AddBatch(ctx, testStream(2_000, 2)); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "the standby", primary)

	for _, tenant := range []string{"", "acme"} {
		if !bytes.Equal(tenantSummary(t, pts.URL, tenant), tenantSummary(t, sts.URL, tenant)) {
			t.Fatalf("tenant %q: the standby's summary differs from the primary's", tenant)
		}
		pe, err1 := client.New(pts.URL, client.WithTenant(tenant)).QueryLE(ctx, 150)
		re, err2 := client.New(sts.URL, client.WithTenant(tenant)).QueryLE(ctx, 150)
		if err := cmp.Or(err1, err2); err != nil || pe != re {
			t.Fatalf("tenant %q: query diverges: primary %v, standby %v (err %v)", tenant, pe, re, err)
		}
	}
	rcl := client.New(sts.URL, client.WithRetries(0))
	st, err := rcl.Stats(ctx)
	if err != nil || st.Role != "replica" || st.Promoted || standby.wal.LastLSN() == 0 {
		t.Fatalf("standby stats %+v (err %v), its log at LSN %d", st, err, standby.wal.LastLSN())
	}
	if err := rcl.AddBatch(ctx, testStream(10, 3)); !client.IsReadOnly(err) {
		t.Fatalf("the standby accepted ingest: %v", err)
	}
	stream, err := client.DialStream(ctx, startStream(t, standby))
	if err != nil {
		t.Fatal(err)
	}
	if err := cmp.Or(stream.Send(testStream(10, 4)), stream.Close()); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("a stream frame to the standby: %v", err)
	}
}

// TestReplicaSnapshotCatchup: a standby added behind the primary's prune
// horizon — its mark 0, the log's oldest record past 1 — is stalled by name
// until it is started on a copy of the primary's snapshot, which carries
// the primary's own mark at its coverage; from there it follows and is
// byte-identical to the primary, the marks of the primary's own sites
// included.
func TestReplicaSnapshotCatchup(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	o := testOptions()
	_, first := newStandby(t, o, nil)
	cfg := walConfig(t)
	cfg.WALSegmentBytes = 4 << 10 // rotate early so checkpoints prune
	cfg.PushTo = first.URL
	primary, pts, pcl := newTestServer(t, cfg)
	ctx := context.Background()
	for i := uint64(0); i < 8; i++ {
		if err := pcl.AddBatch(ctx, testStream(2_000, 10+i)); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			// The log is kept from this snapshot's coverage on while it
			// is the fallback one.
			if err := primary.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := pcl.Forward(ctx, 0x5eed, wal.Version, 0, client.AppendForwardRecord(nil, 7, uint8(wal.RecordIngest), ingestRecord(t, "", "s"))); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "the first standby", primary)
	if err := primary.Snapshot(); err != nil { // checkpoint + prune to the first's coverage
		t.Fatal(err)
	}
	if body := scrape(t, pts.URL); primary.wal.OldestLSN() == 1 || metricValue(t, body, "corrd_wal_checkpoints_total") != 2 ||
		metricValue(t, body, "corrd_wal_pruned_segments_total") < 1 {
		t.Fatalf("a checkpoint every target confirmed did not prune: oldest LSN %d, series\n%s", primary.wal.OldestLSN(), body)
	}

	// A second standby joins: the primary restarts with both targets.
	late := newTarget(t, mustNew(t, Config{Options: o, Standby: true}))
	pts.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.PushTo += "," + late.proxy.URL
	primary, pts, pcl = newTestServer(t, cfg)
	var st client.Stats
	waitUntil(t, 10*time.Second, "the primary to report the stall", func() bool {
		st, _ = pcl.Stats(ctx)
		return strings.Contains(st.ForwardStalled, late.proxy.URL+": mark 0 is behind this log's oldest record")
	})

	data, err := os.ReadFile(snapshotAt(cfg))
	if err != nil {
		t.Fatal(err)
	}
	boot := mustNew(t, Config{Options: o, Standby: true, WALDir: stateWith(t, data)})
	late.coord.Swap(boot).Close()
	if err := pcl.AddBatch(ctx, testStream(1_000, 99)); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "the bootstrapped standby", primary)
	for _, tenant := range []string{"", "s"} {
		if !bytes.Equal(tenantSummary(t, pts.URL, tenant), tenantSummary(t, late.proxy.URL, tenant)) {
			t.Fatalf("tenant %q: the bootstrapped standby differs from the primary", tenant)
		}
	}
	boot.mu.Lock()
	mark := boot.marks[0x5eed]
	boot.mu.Unlock()
	if st, err = pcl.Stats(ctx); err != nil || st.ForwardStalled != "" || mark != 7 {
		t.Fatalf("after the bootstrap the primary reports %q (err %v), the standby's mark for the primary's site is %d, want 7", st.ForwardStalled, err, mark)
	}
}

// mustNew builds a server the test closes; a Config with no log gets its
// own t.TempDir().
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.WALDir == "" {
		cfg.WALDir = t.TempDir()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestFailoverByteIdentity is the acceptance criterion: the primary dies
// mid-ingest — its standby out of reach first, so its log runs ahead of
// what the standby confirmed — the standby is promoted, and its per-tenant
// /v1/summary bytes equal a crash-free oracle's: a fresh server replaying
// the primary's own log up to the standby's mark for it. Run under -race in
// CI.
func TestFailoverByteIdentity(t *testing.T) {
	o := testOptions()
	standby, _ := newStandby(t, o, func(c *Config) { c.WALDir = t.TempDir() })
	toStandby := newTarget(t, standby)
	primary, pts, _ := newTestServer(t, Config{Options: o, WALDir: t.TempDir(), PushTo: toStandby.proxy.URL})
	ctx := context.Background()
	tenants := []string{"", "acme", "beta"}
	ingest := func(round uint64) {
		for i, tenant := range tenants {
			if err := client.New(pts.URL, client.WithTenant(tenant)).AddBatch(ctx, testStream(1_500, round*10+uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(1)
	ingest(2)
	caughtUp(t, "the standby", primary)
	toStandby.down.Store(true) // the failover window: acked here, never forwarded
	ingest(3)
	crash(pts, primary)

	if err := standby.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	standby.mu.Lock()
	mark := standby.marks[primary.fwds[0].site]
	standby.mu.Unlock()
	if mark == 0 || mark >= primary.wal.LastLSN() {
		t.Fatalf("test did not fail over mid-stream: the standby's mark %d, the primary's log at %d", mark, primary.wal.LastLSN())
	}
	oracle, ots, _ := newTestServer(t, Config{Options: o})
	errPastMark := errors.New("past the mark")
	oracle.mu.Lock()
	err := primary.wal.Replay(0, func(lsn uint64, typ wal.RecordType, payload []byte) error {
		if lsn > mark {
			return errPastMark
		}
		_, err := oracle.applyRecord(lsn, typ, payload, &replayState{})
		return err
	})
	oracle.mu.Unlock()
	if err != nil && !errors.Is(err, errPastMark) {
		t.Fatalf("oracle replay: %v", err)
	}
	for _, tenant := range tenants {
		if !bytes.Equal(tenantSummary(t, ots.URL, tenant), tenantSummary(t, toStandby.proxy.URL, tenant)) {
			t.Fatalf("tenant %q: the promoted standby differs from the crash-free oracle at the primary's LSN %d", tenant, mark)
		}
	}

	// The promoted standby takes writes into its own log and says so.
	rcl := client.New(toStandby.proxy.URL)
	last := standby.wal.LastLSN()
	if err := rcl.AddBatch(ctx, testStream(100, 77)); err != nil || standby.wal.LastLSN() <= last {
		t.Fatalf("the promoted standby took a write: %v; its log %d → %d", err, last, standby.wal.LastLSN())
	}
	if st, err := rcl.Stats(ctx); err != nil || st.Role != "coordinator" || !st.Promoted {
		t.Fatalf("promoted stats: role %q, promoted %t (err %v)", st.Role, st.Promoted, err)
	}
	if err := standby.Promote(); !errors.Is(err, errNotStandby) {
		t.Fatalf("second promote: %v", err)
	}
}

// TestPromoteAdminGate: /v1/promote requires the configured token and is
// disabled outright without one. A batch acknowledged after the promotion
// is behind the log's durable frontier, like any other.
func TestPromoteAdminGate(t *testing.T) {
	o := testOptions()
	standby, sts := newStandby(t, o, func(c *Config) { c.AdminToken, c.WALDir = "s3cret", t.TempDir() })
	post := func(url, token string) int {
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/promote", nil)
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		token string
		want  int
	}{{"", http.StatusForbidden}, {"wrong", http.StatusForbidden}, {"s3cret", http.StatusOK}, {"s3cret", http.StatusConflict}} {
		if got := post(sts.URL, tc.token); got != tc.want {
			t.Fatalf("promote with token %q: %d, want %d", tc.token, got, tc.want)
		}
	}
	if err := client.New(sts.URL).AddBatch(context.Background(), testStream(200, 8)); err != nil {
		t.Fatal(err)
	}
	if w := standby.wal; w.LastLSN() == 0 || w.FollowableLSN() != w.LastLSN() {
		t.Fatalf("an acknowledged batch past the promoted log's durable frontier: last %d, followable %d", w.LastLSN(), w.FollowableLSN())
	}
	// No token configured: the endpoint is disabled, not open.
	if _, sts2 := newStandby(t, o, nil); post(sts2.URL, "") != http.StatusForbidden {
		t.Fatal("an unconfigured promote endpoint is open")
	}
}

// TestReplicaAutoPromoteOnPrimaryLoss: with PrimaryTimeout set, a busy and
// then idle primary's forwards, empty ones included, keep its standby a
// standby, and go from one follow of the log, which reopens no segment;
// once no forward arrives from the primary — a second site forwarding to
// the standby all along — the standby promotes itself and writes flow.
func TestReplicaAutoPromoteOnPrimaryLoss(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	o := testOptions()
	standby, sts := newStandby(t, o, func(c *Config) { c.PrimaryTimeout = 250 * time.Millisecond })
	toStandby := newTarget(t, standby)
	fsys := &segmentOpens{FS: fault.OS()}
	primary, _, pcl := newTestServer(t, Config{Options: o, WALDir: t.TempDir(), PushTo: toStandby.proxy.URL, FS: fsys})
	ctx := context.Background()
	if err := pcl.AddBatch(ctx, testStream(1_000, 5)); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "the standby", primary)
	second, _, scl := newTestServer(t, Config{Options: o, WALDir: t.TempDir(), PushTo: sts.URL})
	if err := scl.AddBatch(ctx, testStream(500, 7)); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "the second site", second)
	opens, n := fsys.n.Load(), 1_500
	for busy := time.Now(); time.Since(busy) < 10*forwardPause; n += 10 {
		if err := pcl.AddBatch(ctx, testStream(10, uint64(n))); err != nil {
			t.Fatal(err)
		}
	}
	caughtUp(t, "the standby of a busy primary", primary)
	time.Sleep(4 * standby.cfg.PrimaryTimeout)
	if !standby.standby.Load() || fsys.n.Load() != opens {
		t.Fatalf("a busy, then idle primary: its standby promoted itself %t, its forwarder opened a segment %d more times", !standby.standby.Load(), fsys.n.Load()-opens)
	}

	toStandby.down.Store(true)
	waitUntil(t, 10*time.Second, "auto-promotion", func() bool { return !standby.standby.Load() })
	rcl := client.New(toStandby.proxy.URL)
	if err := rcl.AddBatch(ctx, testStream(100, 6)); err != nil {
		t.Fatalf("the auto-promoted standby refused a write: %v", err)
	}
	if st, err := rcl.Stats(ctx); err != nil || st.Role != "coordinator" || !st.Promoted || st.Count != uint64(n+100) {
		t.Fatalf("auto-promoted stats: role %q, promoted %t, %d tuples (err %v)", st.Role, st.Promoted, st.Count, err)
	}
}

// segmentOpens counts the log segments opened for reading.
type segmentOpens struct {
	fault.FS
	n atomic.Int64
}

func (c *segmentOpens) Open(name string) (fault.File, error) {
	if strings.HasSuffix(name, ".seg") {
		c.n.Add(1)
	}
	return c.FS.Open(name)
}
