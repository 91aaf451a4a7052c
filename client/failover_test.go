package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
)

// replicaStub serves /v1/stats with the given role and answers queries
// and summaries; writes are rejected 503 read-only when role=replica.
func replicaStub(t *testing.T, role string, estimate float64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var writes atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/stats":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"role":%q,"count":1}`, role)
		case "/v1/query":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"op":"le","c":1,"estimate":%g}`, estimate)
		case "/v1/summary":
			io.WriteString(w, "summary-bytes-"+role)
		case "/v1/ingest":
			io.Copy(io.Discard, r.Body)
			if role == "replica" {
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"read-only replica: writes go to the primary"}`)
				return
			}
			writes.Add(1)
			io.WriteString(w, `{"tuples":1}`)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &writes
}

// TestReadFailover: with WithReplicas configured, a dead primary moves
// queries, stats, and summaries to the replica instead of erroring.
func TestReadFailover(t *testing.T) {
	replica, _ := replicaStub(t, "replica", 42)
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close() // connection refused from here on

	cl := New(dead.URL, WithReplicas(replica.URL), WithRetries(0))
	got, err := cl.QueryLE(context.Background(), 1)
	if err != nil || got != 42 {
		t.Fatalf("query did not fail over: %v %v", got, err)
	}
	st, err := cl.Stats(context.Background())
	if err != nil || st.Role != "replica" {
		t.Fatalf("stats did not fail over: %+v %v", st, err)
	}
	sum, err := cl.Summary(context.Background())
	if err != nil || string(sum) != "summary-bytes-replica" {
		t.Fatalf("summary did not fail over: %q %v", sum, err)
	}
}

// TestReadFailoverOn5xx: in multi-base mode a delivered 5xx also moves
// the read — another base may hold the same state and answer.
func TestReadFailover5xx(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"engine wedged"}`)
	}))
	t.Cleanup(broken.Close)
	replica, _ := replicaStub(t, "replica", 7)

	cl := New(broken.URL, WithReplicas(replica.URL), WithRetries(0))
	if got, err := cl.QueryLE(context.Background(), 1); err != nil || got != 7 {
		t.Fatalf("query did not fail over on 5xx: %v %v", got, err)
	}

	// Single-base clients keep the old contract: the 5xx is the answer.
	solo := New(broken.URL, WithRetries(0))
	if _, err := solo.QueryLE(context.Background(), 1); err == nil {
		t.Fatal("single-base 5xx swallowed")
	}
}

// TestWriteRedirect: a 503 read-only rejection from the base triggers
// one probe across the bases and redirects the write to the server
// currently accepting writes (the promoted replica).
func TestWriteRedirect(t *testing.T) {
	demoted, demotedWrites := replicaStub(t, "replica", 0)
	promoted, promotedWrites := replicaStub(t, "coordinator", 0)

	batch := []correlated.Tuple{{X: 1, Y: 2, W: 1}}
	cl := New(demoted.URL, WithReplicas(promoted.URL), WithRetries(0))
	if err := cl.AddBatch(context.Background(), batch); err != nil {
		t.Fatalf("AddBatch not redirected: %v", err)
	}
	if demotedWrites.Load() != 0 || promotedWrites.Load() != 1 {
		t.Fatalf("writes landed wrong: demoted=%d promoted=%d", demotedWrites.Load(), promotedWrites.Load())
	}
	if err := cl.AddBatch(context.Background(), nil); err != nil {
		t.Fatalf("empty AddBatch: %v", err)
	}

	// Without replicas to probe, the 503 is surfaced as IsReadOnly.
	solo := New(demoted.URL, WithRetries(0))
	err := solo.AddBatch(context.Background(), batch)
	if !IsReadOnly(err) {
		t.Fatalf("want IsReadOnly error, got %v", err)
	}
}

// TestIsReadOnly: only the replica rejection shape qualifies.
func TestIsReadOnly(t *testing.T) {
	if IsReadOnly(nil) {
		t.Fatal("nil is read-only")
	}
	if IsReadOnly(errors.New("read-only replica")) {
		t.Fatal("non-APIError matched")
	}
	if IsReadOnly(&APIError{Status: http.StatusServiceUnavailable, Message: "shutting down"}) {
		t.Fatal("plain 503 matched")
	}
	if !IsReadOnly(&APIError{Status: http.StatusServiceUnavailable, Message: "read-only replica: writes go to the primary"}) {
		t.Fatal("replica rejection not matched")
	}
}

// TestPromoteWire: Promote posts /v1/promote with the admin token and
// surfaces the server's error body.
func TestPromoteWire(t *testing.T) {
	var gotToken atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/promote" {
			t.Errorf("unexpected request: %s %s", r.Method, r.URL.Path)
		}
		gotToken.Store(r.Header.Get("X-Admin-Token"))
		io.WriteString(w, `{"promoted":true,"lsn":9}`)
	}))
	t.Cleanup(srv.Close)
	cl := New(srv.URL, WithAdminToken("s3cret"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Promote(ctx); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if got, _ := gotToken.Load().(string); got != "s3cret" {
		t.Fatalf("admin token on the wire: %q", got)
	}
}
