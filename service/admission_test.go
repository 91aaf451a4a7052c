package service

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// TestRefusedWriteLeavesNoTenant pins "registry = f(log)": a write that is
// refused — as invalid, by admission; as shed; while degraded; as a
// forward whose record is not applied — gets the status it always got and
// leaves no tenant behind, so the governance cap cannot be spent by refused requests
// and a restart finds the tenant set the live server had. Each row writes
// into a key of its own; after it the registry gauges have not moved and
// the key reads as 404. Then a valid write to a new tenant fits under
// MaxTenants, and crash + restart — from the log alone (no checkpoint is
// written before the crash), and from a checkpoint and the records after it — reproduces the tenant set and every tenant's
// bytes. (Before the commit made tenants, every row but the degraded one
// and the four malformed-key ones left its tenant registered.)
func TestRefusedWriteLeavesNoTenant(t *testing.T) {
	t.Run("wal only", func(t *testing.T) { refusedWriteCase(t, false) })
	t.Run("wal + snapshot", func(t *testing.T) { refusedWriteCase(t, true) })
}

func refusedWriteCase(t *testing.T, withCheckpoint bool) {
	cfg := walConfig(t)
	cfg.MaxTenants = 3 // the default, "kept", and the one valid newcomer
	cfg.IngestQueueMax = 1
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	addr := startStream(t, svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	post := func(path, key, ctype string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path+"?tenant="+url.QueryEscape(key), ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	ingest := func(key string, batch []correlated.Tuple) int {
		t.Helper()
		return post("/v1/ingest", key, tupleio.ContentType, tupleio.AppendBatch(nil, batch))
	}
	// forward sends one record of type typ from a site.
	forward := func(typ wal.RecordType, payload []byte) int {
		t.Helper()
		body := client.AppendForwardRecord(nil, 1, uint8(typ), payload)
		resp, err := http.Post(fmt.Sprintf("%s/v1/forward?site=abc&format=%d", ts.URL, wal.Version), "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// One raw keyed stream connection carries every stream row: a nacked
	// frame must leave it usable for the next.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(tupleio.AppendHello(nil, tupleio.StreamFormatKeyed)); err != nil {
		t.Fatal(err)
	}
	var reply [tupleio.HelloReplySize]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	frame := func(key string, batch []correlated.Tuple) int {
		t.Helper()
		seq++
		payload := tupleio.AppendKeyedBatch(nil, key, batch)
		wire := append(tupleio.AppendFrameHeader(nil, seq, uint32(len(payload))), payload...)
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		var ack [tupleio.AckSize]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			t.Fatalf("frame %d: the connection did not survive: %v", seq, err)
		}
		got, _, status, err := tupleio.ParseAck(ack[:])
		if err != nil || got != seq {
			t.Fatalf("frame %d: ack seq=%d err=%v", seq, got, err)
		}
		return int(status)
	}

	if got := ingest("", testStream(300, 1)); got != http.StatusOK {
		t.Fatalf("ingest into the default tenant: HTTP %d", got)
	}
	if got := frame("kept", testStream(200, 2)); got != int(tupleio.AckOK) {
		t.Fatalf("frame into a new tenant under the cap: ack %d", got)
	}

	beyond := []correlated.Tuple{{X: 1, Y: 5, W: 1}, {X: 2, Y: cfg.Options.YMax + 1, W: 1}}
	valid := testStream(20, 3)

	gauges := func() (tenants, created float64) {
		t.Helper()
		body := scrape(t, ts.URL)
		return metricValue(t, body, "corrd_tenants"), metricValue(t, body, "corrd_tenant_created_total")
	}
	baseTenants, baseCreated := gauges()
	if baseTenants != 2 || baseCreated != 1 {
		t.Fatalf("before any refusal: corrd_tenants %v, corrd_tenant_created_total %v, want 2 and 1", baseTenants, baseCreated)
	}

	for _, row := range []struct {
		name  string
		key   string
		write func(key string) int
		want  int
	}{
		{"HTTP ingest with y > YMax", "ghost-ymax", func(key string) int { return ingest(key, beyond) }, http.StatusBadRequest},
		{"text ingest with a negative weight", "ghost-weight", func(key string) int {
			return post("/v1/ingest", key, "text/csv", []byte("1,2\n3,4,-5\n"))
		}, http.StatusBadRequest},
		{"keyed stream frame with y > YMax", "ghost-frame", func(key string) int { return frame(key, beyond) }, int(tupleio.AckInvalid)},
		{"forward with y > YMax", "ghost-forward", func(key string) int {
			payload, err := appendIngest(nil, []tenantBatch{{key: []byte(key), tuples: beyond}})
			if err != nil {
				t.Fatal(err)
			}
			return forward(wal.RecordIngest, payload)
		}, http.StatusBadRequest},
		{"forward of a type-2 record", "ghost-push", func(key string) int {
			return forward(wal.RecordType(2), append(tupleio.AppendTenant(nil, key), "an image"...))
		}, http.StatusBadRequest},
		{"ingest shed by IngestQueueMax", "ghost-shed", func(key string) int {
			// Hold the driver lock so the committer stalls inside the first
			// job's group and the second fills the queue to its bound.
			first := ingestOf("", testStream(10, 5))
			second := ingestOf("", testStream(10, 6))
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
			got := ingest(key, valid)
			svc.mu.Unlock()
			<-first.done
			<-second.done
			return got
		}, http.StatusTooManyRequests},
		{"ingest while degraded", "ghost-degraded", func(key string) int {
			svc.degrade("TestRefusedWriteLeavesNoTenant")
			got := ingest(key, valid)
			if err := svc.recoverNow(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			return got
		}, http.StatusServiceUnavailable},
		{"HTTP ingest, control byte in the key", "ghost\x07bell", func(key string) int { return ingest(key, valid) }, http.StatusBadRequest},
		{"HTTP ingest, over-long key", strings.Repeat("k", tupleio.MaxTenantLen+1), func(key string) int { return ingest(key, valid) }, http.StatusBadRequest},
		{"stream frame, control byte in the key", "ghost\x07frame", func(key string) int { return frame(key, valid) }, int(tupleio.AckInvalid)},
		{"stream frame, over-long key", strings.Repeat("f", tupleio.MaxTenantLen+1), func(key string) int { return frame(key, valid) }, int(tupleio.AckInvalid)},
	} {
		if got := row.write(row.key); got != row.want {
			t.Fatalf("%s: status %d, want %d", row.name, got, row.want)
		}
		if tenants, created := gauges(); tenants != baseTenants || created != baseCreated {
			t.Fatalf("%s: corrd_tenants %v → %v, corrd_tenant_created_total %v → %v: the refused write made a tenant",
				row.name, baseTenants, tenants, baseCreated, created)
		}
		resp, err := http.Get(ts.URL + "/v1/summary?tenant=" + url.QueryEscape(row.key))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: GET /v1/summary for the refused key: HTTP %d, want 404", row.name, resp.StatusCode)
		}
	}

	if withCheckpoint {
		if err := svc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// The cap was not spent: a newcomer fits, and the stream connection
	// outlived its nacked frames.
	if got := ingest("fresh", testStream(150, 7)); got != http.StatusOK {
		t.Fatalf("valid write to a new tenant under MaxTenants after the refusals: HTTP %d", got)
	}
	if got := frame("kept", testStream(100, 8)); got != int(tupleio.AckOK) {
		t.Fatalf("frame into an existing tenant after the nacked ones: ack %d", got)
	}
	if got := ingest("one-too-many", valid); got != http.StatusTooManyRequests {
		t.Fatalf("write to a tenant past MaxTenants: HTTP %d, want 429", got)
	}

	tenantSet := func(srv *Server) []string {
		var names []string
		for _, tn := range srv.tenantList() {
			names = append(names, tn.name)
		}
		slices.Sort(names)
		return names
	}
	live := tenantSet(svc)
	if want := []string{"", "fresh", "kept"}; !slices.Equal(live, want) {
		t.Fatalf("live tenant set %q, want %q", live, want)
	}
	liveBytes := map[string][]byte{}
	for _, name := range live {
		liveBytes[name] = tenantBytes(t, svc, name)
	}
	crash(ts, svc)

	svc2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer svc2.Close()
	if got := tenantSet(svc2); !slices.Equal(got, live) {
		t.Fatalf("restarted tenant set %q, live server had %q", got, live)
	}
	for _, name := range live {
		if got := tenantBytes(t, svc2, name); !bytes.Equal(got, liveBytes[name]) {
			t.Fatalf("tenant %q: restarted bytes differ from the live server's (%d vs %d)", name, len(got), len(liveBytes[name]))
		}
	}
}
