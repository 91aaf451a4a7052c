package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/tupleio"
)

// TestAddBatchChunking: a batch larger than the chunk size splits into
// ceil(n/chunk) requests whose decoded tuples reassemble the original
// batch in order.
func TestAddBatchChunking(t *testing.T) {
	var requests int
	var got []correlated.Tuple
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ingest" || r.Header.Get("Content-Type") != tupleio.ContentType {
			t.Errorf("unexpected request: %s %s %s", r.Method, r.URL.Path, r.Header.Get("Content-Type"))
		}
		requests++
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		tuples, err := tupleio.Decode(nil, body)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tuples...)
		json.NewEncoder(w).Encode(map[string]int{"tuples": len(tuples)})
	}))
	defer srv.Close()

	batch := make([]correlated.Tuple, 2500)
	for i := range batch {
		batch[i] = correlated.Tuple{X: uint64(i), Y: uint64(i * 2), W: 1}
	}
	cl := New(srv.URL, WithChunkSize(1000))
	if err := cl.AddBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if requests != 3 {
		t.Fatalf("2500 tuples at chunk 1000: %d requests, want 3", requests)
	}
	if len(got) != len(batch) {
		t.Fatalf("reassembled %d tuples, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Fatalf("tuple %d: got %+v want %+v", i, got[i], batch[i])
		}
	}
}

// TestAPIErrorMapping: non-2xx responses surface the server's JSON
// error message and status, and 409 is detectable as incompatibility.
func TestAPIErrorMapping(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		io.WriteString(w, `{"error":"seed mismatch"}`)
	}))
	defer srv.Close()
	err := New(srv.URL).Push(context.Background(), []byte{1})
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if ae.Status != http.StatusConflict || ae.Message != "seed mismatch" {
		t.Fatalf("APIError: %+v", ae)
	}
	if !IsIncompatible(err) {
		t.Fatal("409 not detected as incompatible")
	}
}

// flakyServer drops the first failures connections at the TCP level
// (the transport sees a reset with no HTTP response — the transient
// class the client retries), then serves normally.
func flakyServer(t *testing.T, failures int, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= int64(failures) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("response writer cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // slam the door: no response bytes at all
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &attempts
}

// TestRetryTransientTransportErrors: AddBatch and Push survive dropped
// connections within the retry budget, with backoff between attempts.
func TestRetryTransientTransportErrors(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"tuples":3}`)
	})
	srv, attempts := flakyServer(t, 2, ok)
	cl := New(srv.URL, WithRetries(3), WithRetryBackoff(time.Millisecond, 10*time.Millisecond))
	batch := []correlated.Tuple{{X: 1, Y: 2, W: 1}, {X: 3, Y: 4, W: 1}, {X: 5, Y: 6, W: 1}}
	if err := cl.AddBatch(context.Background(), batch); err != nil {
		t.Fatalf("AddBatch through flaky transport: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 drops + 1 success)", got)
	}

	srv2, attempts2 := flakyServer(t, 1, ok)
	cl2 := New(srv2.URL, WithRetries(2), WithRetryBackoff(time.Millisecond, 10*time.Millisecond))
	if err := cl2.Push(context.Background(), []byte{9, 9, 9}); err != nil {
		t.Fatalf("Push through flaky transport: %v", err)
	}
	if got := attempts2.Load(); got != 2 {
		t.Fatalf("push attempts: %d", got)
	}
}

// TestRetryBudgetExhausted: a server that never recovers still fails,
// after exactly retries+1 attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	srv, attempts := flakyServer(t, 1<<30, nil)
	cl := New(srv.URL, WithRetries(2), WithRetryBackoff(time.Millisecond, 5*time.Millisecond))
	if err := cl.Push(context.Background(), []byte{1}); err == nil {
		t.Fatal("push to always-failing server succeeded")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts: %d, want 3", got)
	}
}

// TestNoRetryOnHTTPErrors: a delivered HTTP response — even a 5xx — is
// the server speaking, not a transport fault; it must not be retried.
func TestNoRetryOnHTTPErrors(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"FAIL"}`)
	}))
	defer srv.Close()
	cl := New(srv.URL, WithRetries(5), WithRetryBackoff(time.Millisecond, 5*time.Millisecond))
	if _, err := cl.QueryLE(context.Background(), 7); err == nil {
		t.Fatal("503 reported as success")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("5xx retried: %d attempts", got)
	}
}

// TestRetryHonorsContext: cancellation mid-backoff stops the loop
// promptly with the context error.
func TestRetryHonorsContext(t *testing.T) {
	srv, attempts := flakyServer(t, 1<<30, nil)
	cl := New(srv.URL, WithRetries(1000), WithRetryBackoff(time.Hour, time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cl.Push(ctx, []byte{1}) }()
	// Let the first attempt fail and the backoff begin, then cancel.
	for attempts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored cancellation")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts after cancel: %d", got)
	}
}

// TestQueryBatchWire: QueryBatch hits /v1/query with repeated c= and
// decodes the multi-result shape.
func TestQueryBatchWire(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs := r.URL.Query()["c"]
		if len(cs) != 3 || r.URL.Query().Get("op") != "le" {
			t.Errorf("query params: %v", r.URL.Query())
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"op":"le","results":[{"op":"le","c":1,"estimate":10},{"op":"le","c":2,"estimate":20},{"op":"le","c":3,"estimate":30}]}`)
	}))
	defer srv.Close()
	got, err := New(srv.URL).QueryBatch(context.Background(), "le", []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].C != 2 || got[1].Estimate != 20 {
		t.Fatalf("QueryBatch: %+v", got)
	}
	if res, err := New(srv.URL).QueryBatch(context.Background(), "le", nil); err != nil || res != nil {
		t.Fatalf("empty QueryBatch: %v %v", res, err)
	}
}

// TestRetryOnClientTimeout: an http.Client.Timeout expiring with no
// response (blackholed connection) is transient and retried for
// idempotent-policy calls like ingest; only the caller's own context
// deadline ends the loop. (Push is carved out — see the ambiguous
// timeout tests below.)
func TestRetryOnClientTimeout(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			io.Copy(io.Discard, r.Body)
			time.Sleep(600 * time.Millisecond) // past the client timeout
			return
		}
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"tuples":1}`)
	}))
	defer srv.Close()
	cl := New(srv.URL,
		WithHTTPClient(&http.Client{Timeout: 100 * time.Millisecond}),
		WithRetries(2), WithRetryBackoff(time.Millisecond, 5*time.Millisecond))
	if err := cl.AddBatch(context.Background(), []correlated.Tuple{{X: 1, Y: 2, W: 1}}); err != nil {
		t.Fatalf("timed-out first attempt not retried: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts: %d, want 2", got)
	}
}

// TestPushNoRetryOnAmbiguousTimeout: a Push attempt that times out with
// the request delivered but unacknowledged may already have been merged
// by the coordinator; replaying the image would double-count it, so the
// client must surface the timeout after exactly one attempt even with
// retry budget to spare.
func TestPushNoRetryOnAmbiguousTimeout(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		io.Copy(io.Discard, r.Body)
		time.Sleep(600 * time.Millisecond) // past the client timeout, every time
	}))
	defer srv.Close()
	cl := New(srv.URL,
		WithHTTPClient(&http.Client{Timeout: 100 * time.Millisecond}),
		WithRetries(5), WithRetryBackoff(time.Millisecond, 5*time.Millisecond))
	err := cl.Push(context.Background(), []byte{1})
	if err == nil {
		t.Fatal("Push through a blackholed server succeeded")
	}
	if !strings.Contains(err.Error(), "ambiguous timeout") {
		t.Fatalf("error does not explain the carve-out: %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("ambiguous timeout retried: %d attempts, want 1", got)
	}
}

// TestForwardRetriesAmbiguousTimeout: a forward whose answer times out may
// have been applied, but the coordinator drops a record at or below the
// site's mark and answers with the mark, so Forward — unlike Push — sends
// it again, and returns the mark the retry hears.
func TestForwardRetriesAmbiguousTimeout(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			time.Sleep(600 * time.Millisecond) // applied, but past the client timeout
			return
		}
		io.WriteString(w, `{"mark":5}`)
	}))
	defer srv.Close()
	cl := New(srv.URL,
		WithHTTPClient(&http.Client{Timeout: 100 * time.Millisecond}),
		WithRetries(5), WithRetryBackoff(time.Millisecond, 5*time.Millisecond))
	mark, err := cl.Forward(context.Background(), 0xabc, AppendForwardRecord(nil, 5, 1, []byte("rec")))
	if err != nil || mark != 5 || attempts.Load() != 2 {
		t.Fatalf("Forward: mark %d, err %v after %d attempts; want 5 after 2", mark, err, attempts.Load())
	}
}

// TestPushRetriesDefiniteFailures: the carve-out is only for ambiguous
// timeouts — a slammed connection with no response bytes is a definite
// "nothing was merged", and Push still retries through it.
func TestPushRetriesDefiniteFailures(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"merged":true}`)
	})
	srv, attempts := flakyServer(t, 2, ok)
	cl := New(srv.URL, WithRetries(3), WithRetryBackoff(time.Millisecond, 5*time.Millisecond))
	if err := cl.Push(context.Background(), []byte{7}); err != nil {
		t.Fatalf("Push through flaky transport: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts: %d, want 3 (2 drops + 1 success)", got)
	}
}

// TestPromoteSingleAttempt: Promote never retries anything — a promote
// whose response was lost already changed the cluster's shape, and a
// blind second attempt during a failover window risks split-brain. One
// slammed connection means one error, budget be damned.
func TestPromoteSingleAttempt(t *testing.T) {
	srv, attempts := flakyServer(t, 1<<30, nil)
	cl := New(srv.URL, WithRetries(5), WithRetryBackoff(time.Millisecond, 5*time.Millisecond))
	if err := cl.Promote(context.Background()); err == nil {
		t.Fatal("Promote through a dead server succeeded")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("Promote retried: %d attempts, want 1", got)
	}
}

// TestRetryAfterFloorsBackoff: a 429/503 carrying Retry-After is a
// definite refusal — retried even for non-idempotent requests, with the
// server's hint flooring the exponential schedule. A Push (the
// non-idempotent verb the ambiguous-timeout carve-out normally
// protects) must come back after the hinted delay and succeed.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"overload: ingest queue full"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`)
	}))
	defer srv.Close()
	cl := New(srv.URL, WithRetries(2), WithRetryBackoff(time.Millisecond, 5*time.Millisecond))
	start := time.Now()
	if err := cl.Push(context.Background(), []byte{1, 2, 3}); err != nil {
		t.Fatalf("push through a shedding server: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts: %d, want 2 (one shed + one success)", got)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry came back after %v; Retry-After: 1 must floor the 1ms backoff schedule", elapsed)
	}
}

// TestRetryAfterBudgetStillBounds: the hint floors the delay but does
// not grant extra attempts — a server that sheds forever exhausts the
// normal retry budget and surfaces the refusal.
func TestRetryAfterBudgetStillBounds(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"service degraded: wal probe failing"}`)
	}))
	defer srv.Close()
	// Context deadline cuts the waits short so the test does not sit out
	// two full 1s floors; the refusal must still surface as the error.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := New(srv.URL, WithRetries(5), WithRetryBackoff(time.Millisecond, 5*time.Millisecond)).
		Push(ctx, []byte{1})
	if !IsDegraded(err) {
		t.Fatalf("want the degraded refusal surfaced, got: %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.RetryAfter != time.Second {
		t.Fatalf("Retry-After not parsed onto APIError: %v", err)
	}
}

// TestIsBusyIsDegraded: the typed-error predicates recognize both the
// HTTP shapes corrd sends and the stream sentinels, and nothing else.
func TestIsBusyIsDegraded(t *testing.T) {
	busy := &APIError{Status: http.StatusTooManyRequests, Message: "overload: ingest queue full", RetryAfter: 2 * time.Second}
	degraded := &APIError{Status: http.StatusServiceUnavailable, Message: "service degraded: disk fault", RetryAfter: time.Second}
	readOnly := &APIError{Status: http.StatusServiceUnavailable, Message: "replica is read-only"}
	for _, tc := range []struct {
		name       string
		err        error
		busy, degr bool
	}{
		{"http 429 overload", busy, true, false},
		{"http 503 degraded", degraded, false, true},
		{"http 503 read-only", readOnly, false, false},
		{"stream ErrBusy", ErrBusy, true, false},
		{"stream ErrDegraded", ErrDegraded, false, true},
		{"wrapped ErrBusy", errors.Join(errors.New("frame 3"), ErrBusy), true, false},
		{"plain error", errors.New("boom"), false, false},
		{"nil", nil, false, false},
	} {
		if got := IsBusy(tc.err); got != tc.busy {
			t.Errorf("%s: IsBusy = %v, want %v", tc.name, got, tc.busy)
		}
		if got := IsDegraded(tc.err); got != tc.degr {
			t.Errorf("%s: IsDegraded = %v, want %v", tc.name, got, tc.degr)
		}
	}
	// Both refusal shapes carry the server's pacing hint for callers
	// that want it without string-matching.
	if hint, ok := retryAfterHint(busy); !ok || hint != 2*time.Second {
		t.Fatalf("retryAfterHint(busy) = %v, %v", hint, ok)
	}
	if _, ok := retryAfterHint(readOnly); ok {
		t.Fatal("read-only 503 without Retry-After must not look retryable in place")
	}
}
