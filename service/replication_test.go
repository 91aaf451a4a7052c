package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
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

// tcpProxy relays one TCP target so a test can sever the link — the
// replica's view of a primary dying mid-stream — without being able to
// kill -9 an in-process server.
type tcpProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func newProxy(t *testing.T, target string) *tcpProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &tcpProxy{ln: ln, target: target}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				c.Close()
				up.Close()
				return
			}
			p.conns = append(p.conns, c, up)
			p.mu.Unlock()
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()
	t.Cleanup(p.Close)
	return p
}

func (p *tcpProxy) Addr() string { return p.ln.Addr().String() }

// Close severs every relayed connection and stops accepting: from the
// replica's side the primary has gone dark.
func (p *tcpProxy) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.ln.Close()
	for _, c := range p.conns {
		c.Close()
	}
}

// newReplica builds a replica following addr and serves its HTTP API.
func newReplica(t *testing.T, o correlated.Options, addr string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Options: o, PrimaryAddr: addr}
	if mutate != nil {
		mutate(&cfg)
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
	return svc, ts
}

// TestReplicaFollowsAndServesReads: a replica attached to a primary's
// stream listener converges to the primary's exact per-tenant state,
// serves the read path from it, reports lag bookkeeping in stats, and
// refuses writes with the 503 the client maps to IsReadOnly.
func TestReplicaFollowsAndServesReads(t *testing.T) {
	o := testOptions()
	dir := t.TempDir()
	primary, pts, pcl := newTestServer(t, Config{
		Options: o, WALDir: dir, WALFsync: "always",
		HeartbeatInterval: 20 * time.Millisecond,
	})
	addr := startStream(t, primary)
	replicaSvc, rts := newReplica(t, o, addr, nil)

	ctx := context.Background()
	if err := pcl.AddBatch(ctx, testStream(5_000, 1)); err != nil {
		t.Fatal(err)
	}
	acmeCl := client.New(pts.URL, client.WithTenant("acme"))
	if err := acmeCl.AddBatch(ctx, testStream(2_000, 2)); err != nil {
		t.Fatal(err)
	}

	last := primary.walRef().LastLSN()
	waitUntil(t, 10*time.Second, "replica catch-up", func() bool {
		return replicaSvc.appliedLSN.Load() >= last
	})

	for _, tenant := range []string{"", "acme"} {
		pc := client.New(pts.URL, client.WithTenant(tenant))
		rc := client.New(rts.URL, client.WithTenant(tenant))
		want, err := pc.Summary(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rc.Summary(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("tenant %q: replica summary differs from primary (%d vs %d bytes)", tenant, len(got), len(want))
		}
		pe, err := pc.QueryLE(ctx, 150)
		if err != nil {
			t.Fatal(err)
		}
		re, err := rc.QueryLE(ctx, 150)
		if err != nil {
			t.Fatal(err)
		}
		if pe != re {
			t.Fatalf("tenant %q: query diverges: primary %v replica %v", tenant, pe, re)
		}
	}

	rcl := client.New(rts.URL, client.WithRetries(0))
	st, err := rcl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "replica" || st.ReplicaOf != addr || st.ReplicaAppliedLSN < last {
		t.Fatalf("replica stats wrong: %+v", st)
	}
	if st.Promoted {
		t.Fatal("unpromoted replica reports promoted")
	}

	if err := rcl.AddBatch(ctx, testStream(10, 3)); !client.IsReadOnly(err) {
		t.Fatalf("replica accepted ingest: %v", err)
	}
	if err := rcl.Push(ctx, []byte{0}); !client.IsReadOnly(err) {
		t.Fatalf("replica accepted push: %v", err)
	}

	// The primary's metrics surface sees the attached follower.
	resp, err := http.Get(pts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "corrd_replica_conns 1") {
		t.Fatal("primary metrics do not report the replica connection")
	}
}

// TestReplicaSnapshotCatchup: a replica that starts behind the
// primary's prune horizon is re-seeded with a snapshot frame and still
// converges byte-exactly, the sites' marks included.
func TestReplicaSnapshotCatchup(t *testing.T) {
	o := testOptions()
	dir := t.TempDir()
	snap := dir + "/state.snapshot"
	primary, pts, pcl := newTestServer(t, Config{
		Options: o, WALDir: dir + "/wal", WALFsync: "always",
		SnapshotPath: snap, SnapshotInterval: time.Hour,
		WALSegmentBytes:   4 << 10, // rotate early so checkpoints prune
		HeartbeatInterval: 20 * time.Millisecond,
	})
	ctx := context.Background()
	for i := uint64(0); i < 8; i++ {
		if err := pcl.AddBatch(ctx, testStream(2_000, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pcl.Forward(ctx, 0x5eed, client.AppendForwardRecord(nil, 7, uint8(wal.RecordIngest), ingestRecord(t, "", "s"))); err != nil {
		t.Fatal(err)
	}
	if err := primary.Snapshot(); err != nil { // checkpoint + prune
		t.Fatal(err)
	}
	if got := primary.walRef().Stats().Segments; got > 1 {
		t.Fatalf("checkpoint did not prune: %d segments", got)
	}

	addr := startStream(t, primary)
	replicaSvc, rts := newReplica(t, o, addr, nil)
	last := primary.walRef().LastLSN()
	waitUntil(t, 10*time.Second, "seeded replica catch-up", func() bool {
		return replicaSvc.appliedLSN.Load() >= last
	})
	if replicaSvc.metrics.replicaSnapshotsInstalled.Load() == 0 {
		t.Fatal("replica caught up without a snapshot install; prune horizon was not exercised")
	}
	replicaSvc.mu.Lock()
	mark := replicaSvc.marks[0x5eed]
	replicaSvc.mu.Unlock()
	if mark != 7 {
		t.Fatalf("the re-seeded replica's mark for the site is %d, want 7", mark)
	}

	// Convergence must survive a snapshot seed + live records on top.
	if err := pcl.AddBatch(ctx, testStream(1_000, 99)); err != nil {
		t.Fatal(err)
	}
	last = primary.walRef().LastLSN()
	waitUntil(t, 10*time.Second, "post-seed catch-up", func() bool {
		return replicaSvc.appliedLSN.Load() >= last
	})
	want, err := client.New(pts.URL).Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.New(rts.URL).Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("snapshot-seeded replica summary differs from primary")
	}
}

// TestFailoverByteIdentity is the acceptance criterion: the primary
// dies mid-ingest (its link severed, WAL left on disk exactly as acked,
// like kill -9 under fsync=always), the replica is promoted, and the
// promoted server's per-tenant /v1/summary bytes must equal a
// crash-free oracle's — a fresh server replaying the primary's own WAL
// to exactly the sealed LSN. Run under -race in CI.
func TestFailoverByteIdentity(t *testing.T) {
	o := testOptions()
	dir := t.TempDir()
	primary, pts, _ := newTestServer(t, Config{
		Options: o, WALDir: dir, WALFsync: "always",
		HeartbeatInterval: 20 * time.Millisecond,
	})
	addr := startStream(t, primary)
	proxy := newProxy(t, addr)
	replicaDir := t.TempDir()
	replicaSvc, rts := newReplica(t, o, proxy.Addr(), func(c *Config) {
		c.WALDir = replicaDir
		c.WALFsync = "always"
	})

	ctx := context.Background()
	tenants := []string{"", "acme", "beta"}
	ingest := func(round uint64) {
		for i, tenant := range tenants {
			cl := client.New(pts.URL, client.WithTenant(tenant))
			if err := cl.AddBatch(ctx, testStream(1_500, round*10+uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(1)
	ingest(2)
	waitUntil(t, 10*time.Second, "replica to apply some records", func() bool {
		return replicaSvc.appliedLSN.Load() >= 3
	})

	// The primary "dies": the replication link drops mid-stream, but the
	// primary's acked writes keep landing for a moment (the failover
	// window), so its WAL runs ahead of what the replica ever saw.
	proxy.Close()
	ingest(3)

	if err := replicaSvc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	sealed := replicaSvc.appliedLSN.Load()
	if sealed == 0 || sealed >= primary.walRef().LastLSN() {
		t.Fatalf("test did not exercise a mid-stream seal: sealed=%d primary=%d", sealed, primary.walRef().LastLSN())
	}

	// Crash-free oracle: replay the primary's own WAL to exactly the
	// sealed LSN on a fresh engine registry.
	primaryWAL := primary.walRef()
	oracle, err := New(Config{Options: o})
	if err != nil {
		t.Fatal(err)
	}
	ots := httptest.NewServer(oracle.Handler())
	t.Cleanup(func() {
		ots.Close()
		oracle.Close()
	})
	st := newReplayState(0, true)
	errPastSeal := errors.New("past seal")
	err = primaryWAL.Replay(0, func(lsn uint64, typ wal.RecordType, payload []byte) error {
		if lsn > sealed {
			return errPastSeal
		}
		_, aerr := oracle.applyRecord(lsn, typ, payload, st)
		return aerr
	})
	if err != nil && !errors.Is(err, errPastSeal) {
		t.Fatalf("oracle replay: %v", err)
	}

	for _, tenant := range tenants {
		want, err := client.New(ots.URL, client.WithTenant(tenant)).Summary(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.New(rts.URL, client.WithTenant(tenant)).Summary(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("tenant %q: promoted replica differs from crash-free oracle at LSN %d (%d vs %d bytes)",
				tenant, sealed, len(got), len(want))
		}
	}

	// The promoted server is a primary now: it accepts writes, its own
	// WAL continues the sealed LSN space, and stats say so.
	rcl := client.New(rts.URL)
	if err := rcl.AddBatch(ctx, testStream(100, 77)); err != nil {
		t.Fatalf("promoted replica refused a write: %v", err)
	}
	if w := replicaSvc.walRef(); w == nil {
		t.Fatal("promoted replica has no WAL")
	} else if first := sealed + 1; w.LastLSN() < first {
		t.Fatalf("promoted WAL did not continue the LSN space: last=%d want >= %d", w.LastLSN(), first)
	}
	stats, err := rcl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Role != "coordinator" || !stats.Promoted {
		t.Fatalf("promoted stats wrong: role=%q promoted=%v", stats.Role, stats.Promoted)
	}
	if err := replicaSvc.Promote(); !errors.Is(err, errNotReplica) {
		t.Fatalf("second promote: %v", err)
	}
}

// TestPromoteAdminGate: /v1/promote requires the configured token and
// is disabled outright without one.
func TestPromoteAdminGate(t *testing.T) {
	o := testOptions()
	primary, _, _ := newTestServer(t, Config{Options: o, WALDir: t.TempDir(), WALFsync: "off"})
	addr := startStream(t, primary)
	_, rts := newReplica(t, o, addr, func(c *Config) { c.AdminToken = "s3cret" })

	post := func(token string) int {
		req, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/promote", nil)
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
	if got := post(""); got != http.StatusForbidden {
		t.Fatalf("tokenless promote: %d", got)
	}
	if got := post("wrong"); got != http.StatusForbidden {
		t.Fatalf("bad-token promote: %d", got)
	}
	if got := post("s3cret"); got != http.StatusOK {
		t.Fatalf("promote: %d", got)
	}
	if got := post("s3cret"); got != http.StatusConflict {
		t.Fatalf("second promote: %d", got)
	}

	// No token configured: the endpoint is disabled, not open.
	_, rts2 := newReplica(t, o, addr, nil)
	req, _ := http.NewRequest(http.MethodPost, rts2.URL+"/v1/promote", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unconfigured promote endpoint: %d", resp.StatusCode)
	}
}

// TestReplicaAutoPromoteOnPrimaryLoss: with PrimaryTimeout configured,
// total primary silence promotes the replica by itself and writes start
// flowing.
func TestReplicaAutoPromoteOnPrimaryLoss(t *testing.T) {
	o := testOptions()
	primary, _, pcl := newTestServer(t, Config{
		Options: o, WALDir: t.TempDir(), WALFsync: "always",
		HeartbeatInterval: 20 * time.Millisecond,
	})
	addr := startStream(t, primary)
	proxy := newProxy(t, addr)
	replicaSvc, rts := newReplica(t, o, proxy.Addr(), func(c *Config) {
		c.PrimaryTimeout = 250 * time.Millisecond
	})

	ctx := context.Background()
	if err := pcl.AddBatch(ctx, testStream(1_000, 5)); err != nil {
		t.Fatal(err)
	}
	last := primary.walRef().LastLSN()
	waitUntil(t, 10*time.Second, "replica catch-up", func() bool {
		return replicaSvc.appliedLSN.Load() >= last
	})

	proxy.Close()
	waitUntil(t, 10*time.Second, "auto-promotion", func() bool {
		return !replicaSvc.replicaMode.Load()
	})
	rcl := client.New(rts.URL)
	if err := rcl.AddBatch(ctx, testStream(100, 6)); err != nil {
		t.Fatalf("auto-promoted replica refused a write: %v", err)
	}
	stats, err := rcl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Role != "coordinator" || !stats.Promoted {
		t.Fatalf("auto-promoted stats wrong: role=%q promoted=%v", stats.Role, stats.Promoted)
	}
}

// TestPromotedReplicaKeepsIntervalFsync: the interval policy's ticker is
// the server's, not the log's, so a replica configured with
// -wal-fsync=interval has it from New — idle while there is no log — and
// the log its promotion opens is fsynced on it: a batch acknowledged after
// promotion reaches the durable frontier with nothing else demanding a
// barrier.
func TestPromotedReplicaKeepsIntervalFsync(t *testing.T) {
	o := testOptions()
	primary, _, _ := newTestServer(t, Config{Options: o, WALDir: t.TempDir(), WALFsync: "always"})
	replicaSvc, rts := newReplica(t, o, startStream(t, primary), func(c *Config) {
		c.WALDir, c.WALFsync, c.WALFsyncInterval = t.TempDir(), "interval", 5*time.Millisecond
	})
	if err := replicaSvc.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := client.New(rts.URL).AddBatch(context.Background(), testStream(200, 8)); err != nil {
		t.Fatal(err)
	}
	w := replicaSvc.walRef()
	waitUntil(t, 10*time.Second, "the ticker's barrier to cover the acknowledged batch", func() bool {
		return w.LastLSN() > 0 && w.FollowableLSN() == w.LastLSN()
	})
}

// TestReplicaReseedRefreshesFootprint: a re-seed changes the form of every
// tenant it touches — here it empties one the image lacks, and replaces
// the default, a live and a spilled one — and the governance samples must
// follow: afterwards corrd_tenant_bytes and corrd_tenants_live equal a
// recount from the tenants themselves — liveBytes of a live one, the image
// length of a spilled one. The sum is kept incrementally, never recounted, so
// this is also the check that no change of form misses noteFootprintLocked.
func TestReplicaReseedRefreshesFootprint(t *testing.T) {
	o := testOptions()
	ctx := context.Background()
	ingest := func(url string, tenants map[string]uint64) {
		t.Helper()
		for name, seed := range tenants {
			if err := client.New(url, client.WithTenant(name)).AddBatch(ctx, testStream(1_500, seed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	primary, pts, _ := newTestServer(t, Config{
		Options: o, WALDir: t.TempDir(), WALFsync: "always",
		HeartbeatInterval: 20 * time.Millisecond,
	})
	replicaSvc, rts := newReplica(t, o, startStream(t, primary), nil)
	ingest(pts.URL, map[string]uint64{"": 1, "live": 2, "cold": 3, "gone": 4})
	last := primary.walRef().LastLSN()
	waitUntil(t, 10*time.Second, "replica catch-up", func() bool {
		return replicaSvc.appliedLSN.Load() >= last
	})
	if !replicaSvc.spillTenant(replicaSvc.tenantByName("cold")) {
		t.Fatal("cold tenant did not spill")
	}

	// The image of an unrelated primary: no "gone", other contents.
	other, ots, _ := newTestServer(t, Config{Options: o})
	ingest(ots.URL, map[string]uint64{"": 5, "live": 6, "cold": 7})
	covered, file, err := other.replicaSeedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := replicaSvc.replicaInstallSnapshot(covered, file); err != nil {
		t.Fatal(err)
	}

	var wantBytes int64
	wantLive := 0
	replicaSvc.mu.Lock()
	for _, tn := range replicaSvc.tenantList() {
		if tn.spilledLocked() {
			wantBytes += int64(len(tn.pending))
		} else {
			wantBytes += liveBytes(tn.eng)
			wantLive++
		}
	}
	replicaSvc.mu.Unlock()
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := int64(metricValue(t, string(body), "corrd_tenant_bytes")); got != wantBytes || wantBytes == 0 {
		t.Errorf("corrd_tenant_bytes = %d after a re-seed, recount says %d", got, wantBytes)
	}
	if got := int(metricValue(t, string(body), "corrd_tenants_live")); got != wantLive {
		t.Errorf("corrd_tenants_live = %d after a re-seed, recount says %d", got, wantLive)
	}
	for _, name := range []string{"", "live", "cold"} {
		if !bytes.Equal(tenantSummary(t, rts.URL, name), tenantSummary(t, ots.URL, name)) {
			t.Errorf("tenant %q differs from the image it was re-seeded with", name)
		}
	}
	empty, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tenantSummary(t, rts.URL, "gone"), want) {
		t.Error("tenant absent from the image is not empty after the re-seed")
	}
}
