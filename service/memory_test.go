package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/gen"
)

// benchOptions is the summary corrdbench's workloads run.
func benchOptions() correlated.Options {
	return correlated.Options{
		Eps: 0.15, Delta: 0.1, YMax: 999_999,
		MaxStreamLen: 1 << 24, MaxX: 500_001, Seed: 42,
		Predicate: correlated.Both,
	}
}

// heapLive is /gc/heap/live:bytes after two collections: the second empties
// what the first moved to the sync.Pools' victim caches.
func heapLive() int64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestMemoryLedgerCloses: the ledger's two lines close, on a
// stream-saturate-shaped stream (one tenant, 32 768-tuple groups, uniform) and
// on a tenants-restart-shaped one (four tenants, 256-tuple batches, zipf). The
// counters are off the collected heap, in the summaries' arenas: what the
// sketches hold and what waits in the arenas is exactly what the arenas map,
// pooled carrying the size-class rounding the arenas report. What /v1/stats
// says the tenants keep on the heap and the pipeline keeps is the live heap —
// at least 85 % of what the server added to it, and never more than all of
// it. The tenant figures add up to the server's, tenant_bytes is their sum,
// and the runtime's split is populated.
func TestMemoryLedgerCloses(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not in the ledger")
	}
	if testing.Short() {
		t.Skip("ingests 2 M tuples")
	}
	// The sums are checked against the process's heap, so the test runs in a
	// process of its own: what the package's other tests left behind — crashed
	// servers, idle connections — is freed whenever it is freed, and would
	// move the baseline under the measurement.
	if os.Getenv("CORRD_LEDGER_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMemoryLedgerCloses$", "-test.v")
		cmd.Env = append(os.Environ(), "CORRD_LEDGER_CHILD=1")
		out, err := cmd.CombinedOutput()
		t.Logf("%s", out)
		if err != nil {
			t.Fatalf("in its own process: %v", err)
		}
		return
	}
	for _, tc := range []struct {
		name    string
		tenants []string
		batch   int
		stream  func(n int) gen.Stream
		tuples  int
	}{
		{"one tenant, 32768-tuple groups", []string{""}, 32_768,
			func(n int) gen.Stream { return gen.Uniform(n, 500_000, 1_000_000, 11) }, 1_500_000},
		{"four tenants, 256-tuple batches", []string{"a", "b", "c", "d"}, 256,
			func(n int) gen.Stream { return gen.Zipf(n, 500_000, 1_000_000, 1.1, 12) }, 500_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			base := heapLive()
			_, ts, _ := newTestServer(t, Config{Options: benchOptions()})
			defer http.DefaultClient.CloseIdleConnections()
			stream := tc.stream(tc.tuples)
			batch := make([]correlated.Tuple, 0, tc.batch)
			for i := 0; ; i++ {
				batch = batch[:0]
				for len(batch) < tc.batch {
					tu, ok := stream.Next()
					if !ok {
						break
					}
					batch = append(batch, correlated.Tuple{X: tu.X, Y: tu.Y, W: 1})
				}
				if len(batch) == 0 {
					break
				}
				cl := client.New(ts.URL, client.WithTenant(tc.tenants[i%len(tc.tenants)]), client.WithChunkSize(tc.batch))
				if err := cl.AddBatch(ctx, batch); err != nil {
					t.Fatal(err)
				}
			}
			batch, stream = nil, nil
			grown := heapLive() - base
			st, err := client.New(ts.URL).Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			m := st.Memory
			if m == nil {
				t.Fatal("/v1/stats has no memory object")
			}
			tenants := m.HeldBytes + m.PooledBytes + m.HeaderBytes + m.SpilledBytes
			t.Logf("held %d + pooled %d = %d of the %d the arenas map", m.HeldBytes, m.PooledBytes, m.HeldBytes+m.PooledBytes, m.ArenaBytes)
			if m.HeldBytes <= 0 || m.HeldBytes+m.PooledBytes != m.ArenaBytes {
				t.Errorf("held %d + pooled %d, the arenas map %d: want them equal, and held positive", m.HeldBytes, m.PooledBytes, m.ArenaBytes)
			}
			ledger := m.HeaderBytes + m.SpilledBytes + m.ApplyBufBytes + m.GroupBufBytes
			t.Logf("headers %d + pipeline %d = %d of %d the server added to the live heap (%.1f %%); heap_live %d, unaccounted %d",
				m.HeaderBytes, m.ApplyBufBytes+m.GroupBufBytes,
				ledger, grown, 100*float64(ledger)/float64(grown), m.HeapLiveBytes, m.HeapUnaccountedBytes)
			if m.HeaderBytes <= 0 {
				t.Errorf("headers %d: want positive", m.HeaderBytes)
			}
			if ledger*100 < grown*85 || ledger > grown {
				t.Errorf("ledger %d is %.1f %% of the %d bytes the server added to the live heap, want 85–100 %%",
					ledger, 100*float64(ledger)/float64(grown), grown)
			}
			if st.TenantBytes != tenants {
				t.Errorf("tenant_bytes %d, the ledger's tenants add up to %d", st.TenantBytes, tenants)
			}
			// One tenant's view at a time adds up to the server's. The default
			// tenant, empty here unless it is the one fed, is a tenant too.
			var sum, arena int64
			names := map[string]bool{"": true}
			for _, name := range tc.tenants {
				names[name] = true
			}
			for name := range names {
				resp, err := http.Get(ts.URL + "/v1/stats?tenant=" + name)
				if err != nil {
					t.Fatal(err)
				}
				var one client.Stats
				err = json.NewDecoder(resp.Body).Decode(&one)
				resp.Body.Close()
				if err != nil || one.Memory == nil {
					t.Fatalf("tenant %q stats: %v, %+v", name, err, one)
				}
				sum += one.Memory.HeldBytes + one.Memory.PooledBytes + one.Memory.HeaderBytes
				arena += one.Memory.ArenaBytes
			}
			if sum != tenants || arena != m.ArenaBytes {
				t.Errorf("the tenants' own views add up to %d in %d of arenas, the server's to %d in %d", sum, arena, tenants, m.ArenaBytes)
			}
			if m.HeapLiveBytes <= 0 || m.HeapGoalBytes < m.HeapLiveBytes || m.TotalBytes < m.HeapObjectsBytes ||
				m.MetadataBytes <= 0 || m.StacksBytes <= 0 {
				t.Errorf("runtime split not populated: %+v", *m)
			}
			if runtime.GOOS == "linux" && (m.VmRSSBytes <= 0 || m.RssFileBytes <= 0 || m.VmRSSBytes < tenants) {
				t.Errorf("VmRSS %d, RssFile %d, tenants %d", m.VmRSSBytes, m.RssFileBytes, tenants)
			}
		})
	}
}

// recountTenantBytes is what Server.tenantBytes has to read: liveBytes of
// every live tenant, the image length of every spilled one.
func recountTenantBytes(svc *Server) int64 {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	var n int64
	for _, tn := range svc.tenantList() {
		if tn.spilledLocked() {
			n += int64(len(tn.pending))
		} else {
			n += liveBytes(tn.eng)
		}
	}
	return n
}

// TestSnapshotFallbackKeepsTenantBytes: a newest snapshot whose tenants
// install and whose default image then fails to unmarshal is dropped for the
// slot before it, and the tenants dropped with it leave the books — the sum is
// kept by differences, so nothing later would take them off.
func TestSnapshotFallbackKeepsTenantBytes(t *testing.T) {
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	ctx := context.Background()
	ingest := func(seed uint64) {
		t.Helper()
		for i, name := range []string{"", "a", "b"} {
			if err := client.New(ts.URL, client.WithTenant(name)).AddBatch(ctx, testStream(1_000, seed+uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(1)
	if err := svc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingest(4)
	if err := svc.Snapshot(); err != nil { // rotates the first to slot 1
		t.Fatal(err)
	}
	ingest(7) // a WAL suffix past both
	crash(ts, svc)

	data, err := os.ReadFile(snapshotAt(cfg))
	if err != nil {
		t.Fatal(err)
	}
	covered, images, marks, err := decodeSnapshot(data)
	if err != nil || len(images) != 3 {
		t.Fatalf("newest snapshot: %d images, %v", len(images), err)
	}
	for i := range images {
		if images[i].name == "" {
			images[i].image = images[i].image[:len(images[i].image)/2]
		}
	}
	if err := os.WriteFile(snapshotAt(cfg), encodeSnapshot(covered, images, marks), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart over a newest snapshot with a torn default image: %v", err)
	}
	t.Cleanup(func() { svc2.Close() })
	if !fellBack(t, svc2, cfg) {
		t.Fatal("restore did not fall back to the older slot")
	}
	if got, want := svc2.tenantBytes.Load(), recountTenantBytes(svc2); got != want || want == 0 {
		t.Errorf("tenant bytes %d after a fallback restore, recount says %d", got, want)
	}
}

// TestFootprintAtCommitIsFreeOrAskedFor: a commit notes the footprint of the
// tenants it touched when that is a field read (f2) or when a cap asks for it;
// a count daemon with no cap pays no walk on the apply path, and its figure
// stands where New left it.
func TestFootprintAtCommitIsFreeOrAskedFor(t *testing.T) {
	for _, tc := range []struct {
		agg    string
		cap    int64
		follow bool
	}{
		{"f2", 0, true},
		{"count", 0, false},
		{"count", 1 << 40, true},
	} {
		svc, _, cl := newTestServer(t, Config{Options: testOptions(), Aggregate: tc.agg, MaxTenantBytes: tc.cap})
		atNew := svc.tenantBytes.Load()
		if err := cl.AddBatch(context.Background(), testStream(20_000, 9)); err != nil {
			t.Fatal(err)
		}
		got, want := svc.tenantBytes.Load(), recountTenantBytes(svc)
		if want <= atNew {
			t.Fatalf("%s: 20 000 tuples left the summary at %d bytes, %d when empty", tc.agg, want, atNew)
		}
		if tc.follow && got != want {
			t.Errorf("%s, cap %d: tenant bytes %d after a commit, recount says %d", tc.agg, tc.cap, got, want)
		}
		if !tc.follow && got != atNew {
			t.Errorf("%s, cap %d: tenant bytes moved from %d to %d at a commit that should not have walked", tc.agg, tc.cap, atNew, got)
		}
	}
}

// TestQueuedMembersStayEncoded: a queued ingest member holds the counted
// batch it arrived in and no tuples, and the ledger's queued_member_bytes is
// the buffers of the members waiting in the commit queue — the committer,
// stalled here behind the driver lock inside the first job's group, has not
// taken the second — and reads zero once the queue drains.
func TestQueuedMembersStayEncoded(t *testing.T) {
	svc, ts, _ := newTestServer(t, Config{Options: testOptions()})
	first, second := ingestOf("", testStream(10, 5)), ingestOf("", testStream(300, 6))
	queued := func() int {
		svc.pipe.mu.Lock()
		defer svc.pipe.mu.Unlock()
		return len(svc.pipe.queue)
	}
	svc.mu.Lock()
	if !svc.enqueue(first) {
		t.Fatalf("enqueue: %v", first.err)
	}
	waitUntil(t, 10*time.Second, "the committer to take the first job", func() bool { return queued() == 0 })
	if !svc.enqueue(second) {
		t.Fatalf("enqueue: %v", second.err)
	}
	held := svc.queuedMemberBytes()
	svc.mu.Unlock()
	<-first.done
	<-second.done
	if want := int64(cap(second.member)); held != want || second.n != 300 {
		t.Fatalf("one queued member of %d bytes (%d tuples counted): queued_member_bytes %d", want, second.n, held)
	}
	if first.kind != ingestOK || second.kind != ingestOK || svc.Engine().Count() != 310 {
		t.Fatalf("outcomes %d, %d; %d tuples applied, want 310", first.kind, second.kind, svc.Engine().Count())
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st client.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Memory == nil || st.Memory.QueuedMemberBytes != 0 {
		t.Fatalf("a drained queue: memory %+v, want queued_member_bytes 0", st.Memory)
	}
}
