package service

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamagg/correlated/internal/wal"
)

// Degraded-mode state machine. A corrd whose durability path breaks —
// the WAL goes sticky-broken, its appends or fsyncs keep failing, a
// checkpoint's among them — must not keep acknowledging writes it cannot make
// durable, and it must not die either: committed state is still intact
// and perfectly servable. So the server degrades instead: writes get
// 503 + Retry-After (AckDegraded on the stream, keeping the
// connection), while queries, stats, summaries, and log forwarding
// keep serving from committed state. A background probe (a probe
// job — the committer appends and fsyncs a RecordProbe) retries every
// healthProbeInterval; the operator can
// force the same probe with POST /v1/recover. /readyz reports the
// machine's position for load balancers; /healthz stays pure liveness.
//
//	healthy ──(WAL broken | N consecutive wal errors)──▶ degraded
//	degraded ──(probe starts)──▶ recovering ──(probe ok)──▶ healthy
//	                                  └──(probe fails)──▶ degraded

// Health state machine positions, exposed as corrd_health_state.
const (
	healthHealthy    int32 = 0
	healthDegraded   int32 = 1
	healthRecovering int32 = 2
)

// healthFailThreshold is how many consecutive commit groups with a WAL
// error — a checkpoint's group among them — trip the degraded transition.
// A sticky-broken WAL degrades immediately regardless.
const healthFailThreshold = 3

// healthProbeInterval is the recovery loop's probe cadence — and
// therefore the Retry-After hint a degraded 503 carries.
const healthProbeInterval = 2 * time.Second

// health is the server's degraded-mode state machine. The state word is
// an atomic so the ingest hot path reads it without a lock; every
// transition happens under mu so reason, timing, and state move
// together.
type health struct {
	state atomic.Int32

	mu            sync.Mutex
	reason        string        // why we degraded; "" when healthy
	degradedSince time.Time     // zero when healthy
	degradedAccum time.Duration // closed degraded intervals

	walErrs atomic.Int32 // consecutive commit groups with a WAL error
	// A logged record the state failed to apply, or 0: nothing applies after
	// it, so no checkpoint holds it, and no probe recovers.
	lost atomic.Uint64
}

func healthName(st int32) string {
	switch st {
	case healthDegraded:
		return "degraded"
	case healthRecovering:
		return "recovering"
	}
	return "healthy"
}

// healthDegraded reports whether writes are currently refused. It is
// the write path's single gate, so it must stay one atomic load.
func (s *Server) healthDegraded() bool {
	return s.health.state.Load() != healthHealthy
}

// degradedSeconds is the total time spent out of the healthy state,
// closed intervals plus the live one.
func (h *health) degradedSeconds() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.degradedAccum
	if !h.degradedSince.IsZero() {
		d += time.Since(h.degradedSince)
	}
	return d.Seconds()
}

// healthReason returns the live degrade reason ("" when healthy).
func (s *Server) healthReason() string {
	h := &s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reason
}

// degrade moves the machine to degraded (from any state) with the given
// reason. Idempotent while already degraded: the first reason wins, so
// operators see the original cause, not the latest symptom.
func (s *Server) degrade(reason string) {
	h := &s.health
	h.mu.Lock()
	prev := h.state.Load()
	if prev == healthHealthy {
		h.degradedSince = time.Now()
		h.reason = reason
	}
	h.state.Store(healthDegraded)
	h.mu.Unlock()
	if prev == healthHealthy {
		s.logf("health: healthy -> degraded (read-only): %s", reason)
	}
}

// noteWALError records a commit group's WAL failure (an append or the
// barrier, whatever records it carried). A sticky-broken log degrades
// immediately — every future append is doomed until the tail is repaired;
// other errors degrade after healthFailThreshold consecutive ones (the
// committer resets the count on a clean fsync).
func (s *Server) noteWALError(err error) {
	if errors.Is(err, wal.ErrBroken) {
		s.degrade(fmt.Sprintf("wal broken: %v", err))
		return
	}
	if n := s.health.walErrs.Add(1); n >= healthFailThreshold {
		s.degrade(fmt.Sprintf("%d consecutive wal errors, last: %v", n, err))
	}
}

// recoverNow runs one synchronous recovery probe: repair-and-verify the
// WAL tail (a probe job: append a probe record, fsync it). On success the
// machine returns to healthy; on failure it falls back to degraded with
// the original reason intact. Safe to call concurrently (the admin
// endpoint racing the background loop): probes are idempotent.
func (s *Server) recoverNow() error {
	h := &s.health
	h.mu.Lock()
	if h.state.Load() == healthHealthy {
		h.mu.Unlock()
		return nil
	}
	reason := h.reason
	h.state.Store(healthRecovering)
	h.mu.Unlock()

	fail := func(err error) error {
		h.mu.Lock()
		// Only fall back if nothing else already resolved the episode.
		if h.state.Load() == healthRecovering {
			h.state.Store(healthDegraded)
		}
		h.mu.Unlock()
		s.logf("health: recovery probe failed (still degraded): %v", err)
		return err
	}

	if lsn := h.lost.Load(); lsn != 0 {
		return fail(fmt.Errorf("the state lacks logged record %d: %w", lsn, errStateBehindLog))
	}
	if err := s.commit(&ingestJob{op: opProbe}); err != nil {
		return fail(fmt.Errorf("wal probe: %w", err))
	}

	h.mu.Lock()
	if !h.degradedSince.IsZero() {
		h.degradedAccum += time.Since(h.degradedSince)
		h.degradedSince = time.Time{}
	}
	h.reason = ""
	h.state.Store(healthHealthy)
	h.mu.Unlock()
	h.walErrs.Store(0)
	s.logf("health: degraded -> healthy (recovered from: %s)", reason)
	return nil
}

// errDegraded rejects writes while degraded. The message is
// wire-visible; the Go client's IsDegraded matches the 503 status plus
// the "degraded" text.
var errDegraded = errors.New("service degraded: durability path is failing, writes are suspended until recovery")

// handleReadyz is GET /readyz: readiness, as opposed to /healthz's pure
// liveness. A degraded or draining server answers 503 so a load
// balancer routes writes elsewhere while the process itself stays up
// (and /healthz green) serving reads.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.health.state.Load()
	if s.closing.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "state": "shutting-down"})
		return
	}
	if st != healthHealthy {
		w.Header().Set("Retry-After", retryAfterSeconds(healthProbeInterval))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "state": healthName(st), "reason": s.healthReason(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "state": "healthy"})
}

// handleRecover is POST /v1/recover: admin-forced recovery probe, for
// when the operator has fixed the disk and does not want to wait out
// the background loop. Gated exactly like /v1/promote: disabled
// outright without an admin token.
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AdminToken == "" {
		s.httpError(w, http.StatusForbidden, errors.New("recovery endpoint disabled: no admin token configured"))
		return
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get("X-Admin-Token")), []byte(s.cfg.AdminToken)) != 1 {
		s.httpError(w, http.StatusForbidden, errors.New("bad admin token"))
		return
	}
	if err := s.recoverNow(); err != nil {
		s.httpError(w, http.StatusServiceUnavailable, fmt.Errorf("recovery probe failed: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"state": healthName(s.health.state.Load())})
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// header value, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
