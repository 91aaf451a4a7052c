package service

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// TestStandbyBootstrapsOverTheWire: a standby started on an empty state
// directory behind its primary's pruned log is sent the newest checkpoint
// and then the log after it, and ends byte-identical to the primary at the
// mark, every tenant and the marks of the primary's own sites included.
// Here the standby's body cap takes one image a forward, and after the
// first it is killed, and the primary with it: the standby restarts on the
// part of the checkpoint it logged, with its mark still behind the log —
// an image does not move it — so the primary's new forwarder sends the
// checkpoint again from its start, and the standby ends the same.
func TestStandbyBootstrapsOverTheWire(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	siteCfg := walConfig(t)
	siteCfg.WALSegmentBytes = 4 << 10
	svc, err := New(siteCfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := map[string]int{"s": 20}
	for round := uint64(0); round < 3; round++ {
		for i, name := range []string{"", "a", "b", "c"} {
			if err := svc.commit(ingestOf(name, testStream(2_000, 10*round+uint64(i)))); err != nil {
				t.Fatal(err)
			}
			acked[name] += 2_000
		}
	}
	body := client.AppendForwardRecord(nil, 7, uint8(wal.RecordIngest), ingestRecord(t, "s"))
	if err := svc.commit(&ingestJob{op: opForward, site: 0x5eed, image: body}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, image := range checkpointImages(t, svc) {
		largest = max(largest, len(image))
	}
	ck := svc.wal.LastCheckpoint()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if svc.wal.OldestLSN() == 1 {
		t.Fatal("the checkpoint pruned nothing")
	}

	standbyCfg := Config{Options: testOptions(), Standby: true, WALDir: t.TempDir(), MaxBodyBytes: int64(largest) * 3 / 2}
	tg := newTarget(t, mustNew(t, standbyCfg))
	// The first forward the standby logs — the checkpoint's first image —
	// is its last: it is killed, and takes no more.
	crashed := make(chan *Server, 1)
	var cut func(http.ResponseWriter, *http.Request)
	cut = func(w http.ResponseWriter, r *http.Request) {
		sb := tg.coord.Load()
		sb.Handler().ServeHTTP(w, r)
		if sb.appliedLSN.Load() == 0 {
			tg.fault.Store(&cut)
			return
		}
		tg.down.Store(true)
		crash(nil, sb)
		crashed <- sb
	}
	tg.fault.Store(&cut)
	siteCfg.PushTo = tg.proxy.URL
	rig := &forwardRig{target: tg, t: t, siteCfg: siteCfg, acked: acked}
	rig.restartSite()
	t.Cleanup(func() {
		rig.siteTS.Close()
		rig.site.Close()
	})
	select {
	case <-crashed:
	case <-time.After(10 * time.Second):
		t.Fatal("the standby never logged a forward")
	}
	waitUntil(t, 10*time.Second, "the site to take the answer", func() bool { return rig.site.metrics.siteForwardsSent.Load() > 0 })
	crash(rig.siteTS, rig.site)
	// The site's acked is the mark the standby answered, not the images it
	// was sent, and the log keeps the checkpoint for the next attempt.
	if f := rig.site.fwds[0]; f.acked.Load() != 0 || f.boot.Load() != ck.First {
		t.Fatalf("mid-bootstrap the site's forwarder has acked %d and boots from %d; want 0 and the checkpoint's first LSN %d", f.acked.Load(), f.boot.Load(), ck.First)
	}

	restarted, err := New(standbyCfg)
	if err != nil {
		t.Fatal(err)
	}
	restarted.mu.Lock()
	marks := maps.Clone(restarted.marks)
	restarted.mu.Unlock()
	if restarted.wal.LastLSN() == 0 || len(marks) != 0 || restarted.Engine().Count() != uint64(acked[""]) {
		t.Fatalf("the restarted standby logged %d records, holds %d of the default tenant's %d tuples and marks %v; want the first image and no mark",
			restarted.wal.LastLSN(), restarted.Engine().Count(), acked[""], marks)
	}
	tg.coord.Store(restarted)
	tg.down.Store(false)
	rig.restartSite()
	rig.settle("after the bootstrap resumed")
	restarted.mu.Lock()
	got := restarted.marks[0x5eed]
	restarted.mu.Unlock()
	if got != 7 {
		t.Fatalf("the standby's mark for the primary's site is %d, want 7", got)
	}
}

// TestTornCheckpointRestartsFromThePrevious: a crash that tears a
// checkpoint's closing record leaves a log that ends with its images and
// no record to close them. The restart installs the checkpoint before it,
// replays what follows — the torn one's images among it, which hold the
// state the log already does — and holds every acknowledged tuple of every
// tenant, byte for byte; a later checkpoint and crash restart the same.
func TestTornCheckpointRestartsFromThePrevious(t *testing.T) {
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"", "a", "b"}
	ingest := func(svc *Server, seed uint64) {
		t.Helper()
		for i, name := range names {
			if err := svc.commit(ingestOf(name, testStream(500, seed+uint64(i)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	held := func(svc *Server) map[string][]byte {
		out := map[string][]byte{}
		for _, name := range names {
			out[name] = tenantBytes(t, svc, name)
		}
		return out
	}
	ingest(svc, 1)
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	previous := svc.wal.LastCheckpoint()
	ingest(svc, 10)
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := held(svc)
	crash(nil, svc)
	seg := filepath.Join(cfg.WALDir, fmt.Sprintf("wal-%016x.seg", 1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-2); err != nil { // into the closing record
		t.Fatal(err)
	}

	svc, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck := svc.wal.LastCheckpoint(); ck != previous || !svc.Restored() {
		t.Fatalf("the restart restored checkpoint %+v, want the previous one %+v", ck, previous)
	}
	for name, b := range held(svc) {
		if !bytes.Equal(b, want[name]) {
			t.Fatalf("tenant %q after the torn checkpoint differs from its acknowledged writes", name)
		}
	}
	ingest(svc, 20)
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want = held(svc)
	crash(nil, svc)
	svc, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for name, b := range held(svc) {
		if !bytes.Equal(b, want[name]) || svc.Engine().Count() != 1_500 {
			t.Fatalf("tenant %q after the next checkpoint and crash differs from its acknowledged writes", name)
		}
	}
}

// TestCaughtUpStandbyGetsNoImages: a standby that has what its primary
// logged is sent no checkpoint's record — neither the checkpoints the
// primary writes while it follows, nor the one it writes at Close, which
// the restarted primary's follow meets first — and stays byte-identical.
func TestCaughtUpStandbyGetsNoImages(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	standby, _ := newStandby(t, testOptions(), func(c *Config) { c.WALDir = t.TempDir() })
	var sent atomic.Int64 // bytes of checkpoint records forwarded
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/forward" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			walkSiteRecords(body, func(rec siteRecord) error {
				if rec.typ == wal.RecordImage || rec.typ == wal.RecordCheckpoint {
					sent.Add(int64(len(rec.payload)))
				}
				return nil
			})
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		standby.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	cfg := walConfig(t)
	cfg.PushTo = proxy.URL
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 3; round++ {
		for i, name := range []string{"", "a"} {
			if err := primary.commit(ingestOf(name, testStream(1_000, 10*round+uint64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		caughtUp(t, "the standby", primary)
		if err := primary.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	primary, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.commit(ingestOf("a", testStream(1_000, 99))); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "the standby after the primary's restart", primary)
	if ck := primary.wal.LastCheckpoint(); ck.LSN == 0 || sent.Load() != 0 {
		t.Fatalf("the standby was sent %d bytes of checkpoint records (the primary's newest checkpoint %+v)", sent.Load(), ck)
	}
	for _, name := range []string{"", "a"} {
		if !bytes.Equal(tenantBytes(t, standby, name), tenantBytes(t, primary, name)) {
			t.Fatalf("tenant %q: the standby differs from its primary", name)
		}
	}
}

// TestCheckpointRecordsApplyOnlyAtAStandby: a checkpoint's records that
// reach a server with no gap before them — a log that opens on a
// checkpoint, followed from its start — replace a standby's state when they
// come from the site it heard first, and anywhere else — a coordinator, a
// standby's second sender — are dropped at the mark: the mark passes them,
// no tenant is made, and the server's log keeps probes in their place, so
// a restart replays to the same state and mark.
func TestCheckpointRecordsApplyOnlyAtAStandby(t *testing.T) {
	engine, err := newEngine(&Config{Options: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AddBatch(testStream(200, 1)); err != nil {
		t.Fatal(err)
	}
	image, err := engine.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordImage), append(tupleio.AppendTenant(nil, "x"), image...))
	body = client.AppendForwardRecord(body, 2, uint8(wal.RecordCheckpoint), encodeCheckpoint([]string{"x"}, map[uint64]uint64{7: 3}))
	for _, tc := range []struct {
		name    string
		standby bool
		heard   uint64 // the site the server heard first
	}{
		{"coordinator", false, 0xabc},
		{"standby", true, 0xabc},
		{"standby, second sender", true, 0x999},
	} {
		cfg := walConfig(t)
		cfg.Standby = tc.standby
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.hear(tc.heard)
		svc.hear(0xabc)
		if err := svc.commit(&ingestJob{op: opForward, site: 0xabc, image: body}); err != nil {
			t.Fatal(err)
		}
		applies := tc.standby && tc.heard == 0xabc
		for restart := range 2 {
			x, marks := svc.tenantByName("x"), maps.Clone(svc.marks)
			if want := map[uint64]uint64{0xabc: 2}; applies {
				want[7] = 3
				if x == nil || !bytes.Equal(tenantBytes(t, svc, "x"), image) || !maps.Equal(marks, want) {
					t.Fatalf("%s, restart %d: tenant x made %t, marks %v; want the image and %v", tc.name, restart, x != nil, marks, want)
				}
			} else if x != nil || !maps.Equal(marks, want) {
				t.Fatalf("%s, restart %d: tenant x made %t, marks %v; want none and %v", tc.name, restart, x != nil, marks, want)
			}
			crash(nil, svc)
			if svc, err = New(cfg); err != nil {
				t.Fatal(err)
			}
		}
		svc.Close()
	}
}

// TestCoordinatorDropsABootstrapForwardedOnward: a standby bootstrapped
// over the wire logs its primary's checkpoint inside its forwards and, with
// a PushTo of its own, forwards them onward. A coordinator that holds
// another site's tenant and mark takes them nested, with no mark for the
// primary at all, and drops them at every depth: that tenant and that mark
// stay byte for byte, no image reaches a tenant, and the primary's record
// after the checkpoint is applied once — live, and after a restart replays
// the coordinator's log. A second standby the first one forwards to, its
// primary, applies them nested as the first did, and mirrors it.
func TestCoordinatorDropsABootstrapForwardedOnward(t *testing.T) {
	was := forwardPause
	forwardPause = 20 * time.Millisecond
	t.Cleanup(func() { forwardPause = was })
	siteCfg := walConfig(t)
	siteCfg.WALSegmentBytes = 4 << 10
	primary, err := New(siteCfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 3; round++ {
		for i, name := range []string{"", "a"} {
			if err := primary.commit(ingestOf(name, testStream(1_000, 10*round+uint64(i)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cmp.Or(primary.Checkpoint(), primary.Close()); err != nil {
		t.Fatal(err)
	}
	if primary.wal.OldestLSN() == 1 {
		t.Fatal("the checkpoint pruned nothing")
	}

	coordCfg := walConfig(t)
	coord, err := New(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	other := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, "other"))
	if err := coord.commit(&ingestJob{op: opForward, site: 0xdef, image: other}); err != nil {
		t.Fatal(err)
	}
	held := tenantBytes(t, coord, "other")
	coordTS := httptest.NewServer(coord.Handler())
	chained, chainedTS := newStandby(t, testOptions(), func(c *Config) { c.WALDir = t.TempDir() })
	standby, standbyTS := newStandby(t, testOptions(), func(c *Config) { c.WALDir, c.PushTo = t.TempDir(), coordTS.URL+","+chainedTS.URL })
	siteCfg.PushTo = standbyTS.URL
	primary, err = New(siteCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.commit(ingestOf("a", testStream(500, 99))); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, "the standby", primary)
	caughtUp(t, "the coordinator", standby)
	for _, name := range []string{"", "a"} {
		if !bytes.Equal(tenantBytes(t, standby, name), tenantBytes(t, primary, name)) || !bytes.Equal(tenantBytes(t, chained, name), tenantBytes(t, primary, name)) {
			t.Fatalf("tenant %q: the bootstrapped standby, or the standby it forwards to, differs from the primary", name)
		}
	}
	count := func(svc *Server, name string) uint64 {
		t.Helper()
		svc.mu.Lock()
		defer svc.mu.Unlock()
		eng, err := svc.ensureEngineLocked(svc.tenants[name])
		if err != nil {
			t.Fatal(err)
		}
		return eng.Count()
	}
	for restart := range 2 {
		coord.mu.Lock()
		marks := maps.Clone(coord.marks)
		coord.mu.Unlock()
		if !bytes.Equal(tenantBytes(t, coord, "other"), held) || marks[0xdef] != 1 || len(marks) != 3 {
			t.Fatalf("restart %d: tenant other changed %t, marks %v; want it as it was, and site def's mark 1", restart, !bytes.Equal(tenantBytes(t, coord, "other"), held), marks)
		}
		if a, def := count(coord, "a"), count(coord, ""); a != 500 || def != 0 {
			t.Fatalf("restart %d: the coordinator holds %d tuples of tenant a and %d of the default tenant; want the 500 after the checkpoint, and none", restart, a, def)
		}
		if restart == 0 {
			crash(coordTS, coord)
			if coord, err = New(coordCfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	coord.Close()
}
