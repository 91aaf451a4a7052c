package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/streamagg/correlated/internal/wal"
)

// syncBuffer is a goroutine-safe bytes.Buffer for test log sinks.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogRecordZeroAlloc pins the record path at zero allocations
// per call — the property that keeps access logging off the serving
// path's allocation budget. The accessLog is built without its writer
// goroutine (AllocsPerRun measures process-wide allocations, so a
// concurrent drain would pollute the count); with nothing draining, the
// runs exercise both the enqueue path and the ring-full drop path.
func TestAccessLogRecordZeroAlloc(t *testing.T) {
	var dropped counter
	l := &accessLog{
		ring:    make([]accessRecord, 64),
		notify:  make(chan struct{}, 1),
		dropped: &dropped,
	}
	r := accessRecord{
		ts:        time.Now(),
		transport: "http",
		method:    "POST",
		path:      "/v1/ingest",
		tenant:    "t001",
		requestID: "abc-1",
		status:    200,
		bytesIn:   4096,
		bytesOut:  64,
		dur:       3 * time.Millisecond,
	}
	if allocs := testing.AllocsPerRun(1000, func() { l.record(r) }); allocs != 0 {
		t.Fatalf("record allocates %v per call, want 0", allocs)
	}
	if dropped.Load() == 0 {
		t.Fatal("1000+ records into a 64-slot undrained ring should have dropped some")
	}
}

// TestAccessLogOverflowAndOutput: records survive the ring and come out
// the writer as parseable JSON lines, overflow past the capacity is
// dropped and counted rather than blocking, and Close flushes the tail.
func TestAccessLogOverflowAndOutput(t *testing.T) {
	var out syncBuffer
	m := newMetrics()
	dropped := &m.accessDropped
	l := newAccessLog(&out, 8, dropped)
	rec := accessRecord{
		ts:        time.Unix(1700000000, 0).UTC(),
		transport: "http",
		method:    "GET",
		path:      `/v1/query?weird="quoted"`,
		requestID: "rid-7",
		status:    400,
		bytesIn:   -1,
		bytesOut:  12,
		dur:       1500 * time.Microsecond,
		seq:       0,
	}
	for i := 0; i < 200; i++ {
		l.record(rec)
	}
	l.Close() // final drain: everything not dropped is written

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	written := len(lines)
	if written == 0 || lines[0] == "" {
		t.Fatalf("no access-log output; dropped=%d", dropped.Load())
	}
	if uint64(written)+dropped.Load() != 200 {
		t.Fatalf("written %d + dropped %d != 200 records", written, dropped.Load())
	}
	var exp strings.Builder
	m.write(&exp, tenantStats{}, wal.Stats{}, &health{})
	if v := metricValue(t, exp.String(), "corrd_access_log_dropped_total"); v != float64(dropped.Load()) {
		t.Fatalf("corrd_access_log_dropped_total %v, the ring dropped %d", v, dropped.Load())
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable access-log line %q: %v", line, err)
		}
		if m["path"] != rec.path {
			t.Fatalf("path = %v, want %q (escaping broken)", m["path"], rec.path)
		}
		if m["status"] != float64(400) || m["method"] != "GET" || m["request_id"] != "rid-7" {
			t.Fatalf("bad record fields in %q", line)
		}
		if _, hasSeq := m["seq"]; hasSeq {
			t.Fatalf("seq rendered for an HTTP record: %q", line)
		}
	}
}

// TestHTTPAccessLogRequestID drives the full middleware: a supplied
// X-Request-ID is echoed on the response and lands in the access log's
// JSON line; a request without one gets a minted ID; and a
// SlowRequest threshold of 1ns promotes every request to the main
// logger.
func TestHTTPAccessLogRequestID(t *testing.T) {
	var access syncBuffer
	var mainLog syncBuffer
	_, ts, cl := newTestServer(t, Config{
		Options:     testOptions(),
		AccessLog:   &access,
		SlowRequest: time.Nanosecond,
		Logger:      log.New(&mainLog, "", 0),
	})
	if err := cl.AddBatch(context.Background(), testStream(100, 9)); err != nil {
		t.Fatal(err)
	}

	const rid = "smoke-rid-42"
	req, err := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("echoed X-Request-ID = %q, want %q", got, rid)
	}

	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got == "" {
		t.Fatal("no minted X-Request-ID on a request that supplied none")
	}

	// The writer drains asynchronously; poll for the supplied ID.
	deadline := time.Now().Add(5 * time.Second)
	var line string
	for line == "" {
		for _, l := range strings.Split(access.String(), "\n") {
			if strings.Contains(l, rid) {
				line = l
				break
			}
		}
		if line == "" {
			if time.Now().After(deadline) {
				t.Fatalf("request ID %q never reached the access log:\n%s", rid, access.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("unparseable access-log line %q: %v", line, err)
	}
	if m["method"] != "GET" || m["path"] != "/v1/stats" || m["transport"] != "http" || m["status"] != float64(200) {
		t.Fatalf("bad access record %q", line)
	}
	if !strings.Contains(mainLog.String(), "slow request:") {
		t.Fatalf("SlowRequest=1ns promoted nothing to the main logger:\n%s", mainLog.String())
	}
	// The ingest and both stats requests were over the threshold.
	if v := metricValue(t, scrape(t, ts.URL), "corrd_slow_requests_total"); v < 3 {
		t.Fatalf("corrd_slow_requests_total %v, want at least 3", v)
	}
}
