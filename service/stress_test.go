package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/wal"
)

// The tests here pin the concurrent serving core: the commit pipeline's
// group boundaries must stay a pure function of the log (crash-exact
// recovery under concurrency — recovered bytes equal pre-crash bytes),
// and the memoized read path must never corrupt state while ingest,
// pushes, snapshots, and queries overlap. Every stream keeps its
// distinct y count under Alpha, so the singleton level holds exact
// per-y state and query answers are float-exact against a serial
// oracle regardless of arrival order.

// TestWALCrashRecoveryExactConcurrent is the tentpole's acceptance
// contract under concurrency: 8 clients ingest in parallel (their
// requests landing in whatever commit groups the pipeline forms), the
// server is killed without warning, and the restart — restore snapshot,
// replay the group records — rebuilds the exact bytes of the pre-crash
// state. The group boundary is durable in the log, so replay cuts each
// tenant's batches exactly where the live run cut them.
func TestWALCrashRecoveryExactConcurrent(t *testing.T) {
	const ingesters = 8
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	ctx := context.Background()

	ingest := func(s *httptest.Server, snapshotAfter func(i int)) {
		var wg sync.WaitGroup
		for i := 0; i < ingesters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl := client.New(s.URL, client.WithChunkSize(256))
				stream := testStream(1_000, uint64(100+i))
				for off := 0; off < len(stream); off += 250 {
					end := min(off+250, len(stream))
					if err := cl.AddBatch(ctx, stream[off:end]); err != nil {
						t.Error(err)
						return
					}
					if snapshotAfter != nil {
						snapshotAfter(i)
					}
				}
			}(i)
		}
		wg.Wait()
	}
	// Interleave an explicit snapshot from one goroutine mid-stream so
	// recovery exercises restore-then-replay-suffix, not pure replay.
	var snapOnce sync.Once
	ingest(ts, func(i int) {
		snapOnce.Do(func() {
			if err := svc.Snapshot(); err != nil {
				t.Error(err)
			}
		})
	})
	if t.Failed() {
		t.FailNow()
	}

	// Every request is acknowledged, so every group is committed:
	// capture the exact pre-crash bytes as the recovery oracle.
	pre, err := svc.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	crash(ts, svc)

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if svc2.walReplayed == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	got, err := svc2.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pre) {
		t.Fatalf("recovered summary differs from pre-crash state (%d vs %d bytes): group replay moved a batch boundary",
			len(got), len(pre))
	}

	// Value-level serial oracle: the singleton level's composition is a
	// sum of per-y sketches, independent of arrival order and batch
	// boundaries, so the recovered server must answer float-exactly like
	// one offline summary fed every acknowledged batch serially.
	offline, err := correlated.NewF2Summary(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ingesters; i++ {
		if err := offline.AddBatch(testStream(1_000, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	n := svc2.Engine().Count()
	if n != uint64(ingesters)*1_000 {
		t.Fatalf("recovered count %d, want %d", n, ingesters*1_000)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	cl2 := client.New(ts2.URL)
	for _, c := range []uint64{0, 20, 80, 150, 250, distinctY, 1 << 15} {
		want, err1 := offline.QueryLE(c)
		got, err2 := cl2.QueryLE(ctx, c)
		if err1 != nil || err2 != nil {
			t.Fatalf("c=%d: %v / %v", c, err1, err2)
		}
		if got != want {
			t.Fatalf("c=%d: recovered server %v, serial oracle %v", c, got, want)
		}
	}
}

// TestServiceStressRace drives one WAL-enabled server with everything at
// once — 6 concurrent ingesters, multi-cutoff query loops, site pushes,
// and a hot snapshot ticker — and then asserts the final state matches a
// serial oracle over the same acknowledged batches and images: exact
// count, and float-exact query answers in both directions (the singleton
// level's composition is a sum of per-y sketches, so it is independent
// of ingest order and batch boundaries — byte-identity of the whole
// marshal additionally requires the dyadic levels to stay virgin, which
// only the smaller crash-exactness streams guarantee). A kill -9 and
// recovery at the end must reproduce the pre-crash bytes exactly. Run
// under -race (the CI race job does) this is the serving core's
// interleaving torture test.
func TestServiceStressRace(t *testing.T) {
	o := testOptions()
	cfg := walConfig(t)
	cfg.SnapshotInterval = 25 * time.Millisecond // hot ticker, real xfer contention
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	ctx := context.Background()

	const (
		ingesters        = 6
		batchesPerClient = 6
		batchSize        = 150
		pushers          = 2
		pushesEach       = 3
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Query loops: multi-cutoff, continuously, against the answer memo.
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(ts.URL)
			cutoffs := []uint64{10, 50, 150, distinctY}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.QueryBatch(ctx, "le", cutoffs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	var mu sync.Mutex
	var ackedImages [][]byte
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl := client.New(ts.URL)
			for j := 0; j < pushesEach; j++ {
				site, err := correlated.NewF2Summary(o)
				if err != nil {
					t.Error(err)
					return
				}
				if err := site.AddBatch(testStream(200, uint64(7000+p*100+j))); err != nil {
					t.Error(err)
					return
				}
				img, err := site.MarshalBinary()
				if err != nil {
					t.Error(err)
					return
				}
				if err := cl.Push(ctx, img); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ackedImages = append(ackedImages, img)
				mu.Unlock()
			}
		}(p)
	}

	var iwg sync.WaitGroup
	for i := 0; i < ingesters; i++ {
		iwg.Add(1)
		go func(i int) {
			defer iwg.Done()
			cl := client.New(ts.URL, client.WithChunkSize(batchSize))
			for j := 0; j < batchesPerClient; j++ {
				if err := cl.AddBatch(ctx, testStream(batchSize, uint64(9000+i*100+j))); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	iwg.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Serial oracle: every acknowledged batch and image, applied to one
	// offline summary, in an order unrelated to the server's.
	offline, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	var ackedTuples uint64
	for i := 0; i < ingesters; i++ {
		for j := 0; j < batchesPerClient; j++ {
			if err := offline.AddBatch(testStream(batchSize, uint64(9000+i*100+j))); err != nil {
				t.Fatal(err)
			}
			ackedTuples += batchSize
		}
	}
	for _, img := range ackedImages {
		if err := offline.MergeMarshaled(img); err != nil {
			t.Fatal(err)
		}
		ackedTuples += 200
	}
	cl := client.New(ts.URL)
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != ackedTuples {
		t.Fatalf("server holds %d tuples, oracle acknowledged %d", st.Count, ackedTuples)
	}
	cutoffs := []uint64{0, 10, 25, 50, 100, 150, 200, 250, distinctY, 1 << 15}
	for _, c := range cutoffs {
		wantLE, err1 := offline.QueryLE(c)
		gotLE, err2 := cl.QueryLE(ctx, c)
		wantGE, err3 := offline.QueryGE(c)
		gotGE, err4 := cl.QueryGE(ctx, c)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			t.Fatalf("c=%d: %v %v %v %v", c, err1, err2, err3, err4)
		}
		if gotLE != wantLE || gotGE != wantGE {
			t.Fatalf("c=%d: server (LE %v, GE %v) oracle (LE %v, GE %v)", c, gotLE, gotGE, wantLE, wantGE)
		}
	}

	// And the whole thing survives a kill -9: the recovered bytes must
	// reproduce the pre-crash state exactly (group replay). The snapshot
	// ticker is still marshaling the same summary, so take the lock.
	pre := tenantBytes(t, svc, "")
	crash(ts, svc)
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	recovered := tenantBytes(t, svc2, "")
	if !bytes.Equal(recovered, pre) {
		t.Fatalf("post-crash recovery differs from pre-crash state (%d vs %d bytes)", len(recovered), len(pre))
	}
	svc2.mu.Lock()
	n2 := svc2.def.eng.Count()
	svc2.mu.Unlock()
	if n2 != ackedTuples {
		t.Fatalf("recovered count %d, want %d", n2, ackedTuples)
	}
}

// tenantBytes marshals one tenant's summary under the driver lock,
// restoring it first if it is spilled — what /v1/summary serves.
func tenantBytes(t *testing.T, svc *Server, name string) []byte {
	t.Helper()
	tn := svc.tenantByName(name)
	if tn == nil {
		t.Fatalf("tenant %q does not exist", name)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	eng, err := svc.ensureEngineLocked(tn)
	if err != nil {
		t.Fatal(err)
	}
	img, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCommitGroupOneBatchPerTenant pins the apply path's and the log's
// contract, one commit group per case: a member with y > YMax is refused
// by enqueue and never reaches the group; of the group, only the member
// naming a tenant past MaxTenants is nacked, alone, and makes no tenant;
// each tenant holds exactly what one offline AddBatch of its applied
// members, concatenated in client order, leaves; the members' own slices
// keep the client's tuple order (the commit sorts only its own copy);
// the group is logged as one RecordIngest — whatever its size and whichever
// tenants it names — holding one member per touched tenant, in first-touch
// order and none for the refused member, each what core.SortByY makes of
// that tenant's concatenation, and the payload is what the one encoder
// makes of what the one decoder reads; and every other way to reach the
// state — spill → restore, a replica applying the shipped record, a restart
// replaying it — reproduces the same bytes.
func TestCommitGroupOneBatchPerTenant(t *testing.T) {
	s1, s2, s3, s4 := testStream(300, 1), testStream(200, 2), testStream(250, 3), testStream(150, 4)
	for _, tc := range []struct {
		name       string
		maxTenants int // the default tenant counts
		members    []groupMember
	}{
		{"default tenant, group of one", 0, []groupMember{{"", s1, ingestOK}}},
		{"default tenant, group of three, one nacked", 1, []groupMember{
			{"", s1, ingestOK}, {"over-cap", s3, ingestErrTenant}, {"", s2, ingestOK},
		}},
		{"keyed and default tenants, one nacked", 3, []groupMember{
			{"a", s1, ingestOK}, {"", s4, ingestOK}, {"b", s2, ingestOK}, {"over-cap", s4, ingestErrTenant}, {"a", s3, ingestOK},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { commitGroupCase(t, tc.maxTenants, tc.members) })
	}
}

// groupMember is one request of a TestCommitGroupOneBatchPerTenant group
// and the outcome the commit must give it.
type groupMember struct {
	tenant string
	tuples []correlated.Tuple
	kind   ingestErrKind
}

// commitGroupCase runs one TestCommitGroupOneBatchPerTenant group.
func commitGroupCase(t *testing.T, maxTenants int, members []groupMember) {
	cfg := walConfig(t)
	cfg.MaxTenants = maxTenants
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	beyond := ingestJob{tuples: []correlated.Tuple{{X: 1, Y: 5, W: 1}, {X: 2, Y: cfg.Options.YMax + 1, W: 1}}}
	if svc.enqueue(&beyond) || beyond.kind != ingestErrValidate {
		t.Fatalf("enqueue admitted a batch with y > YMax (kind %d, err %v)", beyond.kind, beyond.err)
	}
	clone := func(b []correlated.Tuple) []correlated.Tuple { return append([]correlated.Tuple(nil), b...) }
	type logged struct {
		tenant string
		tuples []correlated.Tuple
	}
	var touched []string // the tenants the commit must apply to, in first-touch order
	batches := map[string][]correlated.Tuple{}
	jobs := make([]*ingestJob, len(members))
	for i, m := range members {
		jobs[i] = &ingestJob{key: []byte(m.tenant), tuples: clone(m.tuples), done: make(chan struct{}, 1)}
		if m.kind == ingestOK {
			if _, seen := batches[m.tenant]; !seen {
				touched = append(touched, m.tenant)
			}
			batches[m.tenant] = append(batches[m.tenant], m.tuples...)
		}
	}
	svc.commitGroup(jobs)
	for i, j := range jobs {
		<-j.done
		if j.kind != members[i].kind {
			t.Fatalf("member %d: kind %d (err %v), want %d", i, j.kind, j.err, members[i].kind)
		}
		if !slices.Equal(j.tuples, members[i].tuples) {
			t.Fatalf("member %d: the commit reordered the job's own slice", i)
		}
	}

	want := map[string][]byte{}
	for name, batch := range batches {
		offline, err := correlated.NewF2Summary(cfg.Options)
		if err != nil {
			t.Fatal(err)
		}
		if err := offline.AddBatch(clone(batch)); err != nil {
			t.Fatal(err)
		}
		if want[name], err = offline.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(path string, srv *Server) {
		t.Helper()
		for name, img := range want {
			if got := tenantBytes(t, srv, name); !bytes.Equal(got, img) {
				t.Fatalf("%s: tenant %q differs from its one offline AddBatch (%d vs %d bytes)", path, name, len(got), len(img))
			}
		}
		for _, m := range members {
			if m.kind != ingestOK && srv.tenantByName(m.tenant) != nil {
				t.Fatalf("%s: the refused member left tenant %q behind", path, m.tenant)
			}
		}
	}
	check("live commit", svc)

	// The log: one ingest record, a member per touched tenant holding what
	// its AddBatch was given, and the encoder the decoder's inverse.
	var record []logged
	var records int
	if err := svc.walRef().Replay(0, func(lsn uint64, typ wal.RecordType, payload []byte) error {
		records++
		if typ != wal.RecordIngest {
			t.Fatalf("record %d has type %d, want RecordIngest", lsn, typ)
		}
		batches, err := newReplayState(0, true).decodeIngest(payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			record = append(record, logged{string(b.key), b.tuples})
		}
		if again, err := appendIngest(nil, batches); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("record %d: encode(decode(payload)) differs from the payload (err %v)", lsn, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records != 1 || len(record) != len(touched) {
		t.Fatalf("log holds %d records with %d members, want 1 with %d", records, len(record), len(touched))
	}
	for i, name := range touched {
		sorted := clone(batches[name])
		core.SortByY(sorted)
		if record[i].tenant != name || !slices.Equal(record[i].tuples, sorted) {
			t.Fatalf("logged member %d is not tenant %q's members concatenated and sorted by y", i, name)
		}
	}

	for _, path := range []struct {
		name  string
		reach func() *Server
	}{
		{"spill → restore", func() *Server {
			keyed := len(batches)
			if _, ok := batches[""]; ok {
				keyed-- // the default tenant never spills
			}
			if n := svc.spillIdle(0); n != keyed {
				t.Fatalf("spilled %d tenants, want %d", n, keyed)
			}
			return svc
		}},
		{"replica apply", func() *Server {
			replica, err := New(Config{Options: cfg.Options})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { replica.Close() })
			replica.replState = newReplayState(0, false)
			if err := svc.walRef().Replay(0, func(lsn uint64, typ wal.RecordType, payload []byte) error {
				return replica.replicaApply(lsn, uint8(typ), payload)
			}); err != nil {
				t.Fatal(err)
			}
			return replica
		}},
		{"restart", func() *Server {
			svc.shutdownStorage()
			svc2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { svc2.Close() })
			return svc2
		}},
	} {
		check(path.name, path.reach())
	}
}

// ageMemo backdates every memoized answer of t by d: deterministic
// expiry of the QueryMaxStale window.
func ageMemo(t *tenant, d time.Duration) {
	t.memoMu.Lock()
	for k, e := range t.memo {
		e.at = e.at.Add(-d)
		t.memo[k] = e
	}
	t.memoMu.Unlock()
}

// TestQueryMaxStale: with a staleness budget a memoized answer keeps
// being served through state changes until the window expires, then
// catches up.
func TestQueryMaxStale(t *testing.T) {
	cfg := Config{Options: testOptions(), QueryMaxStale: time.Hour}
	svc, _, cl := newTestServer(t, cfg)
	ctx := context.Background()
	if err := cl.AddBatch(ctx, testStream(1_000, 61)); err != nil {
		t.Fatal(err)
	}
	first, err := cl.QueryLE(ctx, distinctY) // evaluates and memoizes
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch(ctx, testStream(1_000, 62)); err != nil {
		t.Fatal(err)
	}
	within, err := cl.QueryLE(ctx, distinctY)
	if err != nil {
		t.Fatal(err)
	}
	if within != first {
		t.Fatalf("query inside the staleness window evaluated again: %v vs %v", within, first)
	}
	ageMemo(svc.def, 2*time.Hour)
	after, err := cl.QueryLE(ctx, distinctY)
	if err != nil {
		t.Fatal(err)
	}
	if after == first {
		t.Fatalf("query after the window still served the stale answer: %v", after)
	}
	if got := svc.metrics.queryCacheRebuilds.Load(); got != 2 {
		t.Fatalf("rebuilds = %d, want 2 (first evaluation + post-expiry)", got)
	}
	if got := svc.metrics.queryCacheHits.Load(); got != 1 {
		t.Fatalf("hits = %d, want 1 (the query inside the window)", got)
	}
}
