package service

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/streamagg/correlated/internal/replica"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// Replication: WAL-shipped warm standby with failover.
//
// The primary serves its log over the stream listener: a connection
// whose hello names StreamFormatReplica sends one start request (the
// LSN the follower already covers) and then only reads — the primary
// runs wal.Follow from that position and ships every durable record as
// a frame (seq = LSN), interleaved with heartbeats carrying its
// followable frontier. Only fsynced records are shipped (the WAL's
// durable frontier), so a replica can never hold state the primary's
// own crash recovery would lose — which is what keeps the failover
// byte-identity guarantee honest. A follower whose position has been
// pruned by a checkpoint is re-seeded with a freshly built snapshot
// frame and follows on from its covered LSN, so the primary carries no
// unbounded retention obligation.
//
// The replica (Config.PrimaryAddr) applies each shipped record under
// the driver lock through the exact applyRecord switch its own startup
// replay uses — each record decoded into jobs and run through the commit's
// own apply, the same one AddBatch of the same sorted batch per tenant per
// group record — so its state is always "the primary replayed to LSN N".
// It serves reads (/v1/query, /v1/stats, /v1/summary) through the same
// answer memo as a primary and rejects writes with 503 (AckReadOnly on the
// stream). Promotion — POST /v1/promote, or automatic on primary
// silence (Config.PrimaryTimeout) — detaches the follower, seals the
// applied LSN, opens the replica's own WAL continuing the primary's LSN
// space, and starts accepting writes. The sites' marks are state like any
// other, so a promoted replica drops what its primary had already applied.

var (
	// errReadOnlyReplica rejects writes on a replica; the message is
	// wire-visible and the Go client's IsReadOnly matches the 503
	// status + this text.
	errReadOnlyReplica = errors.New("read-only replica: writes go to the primary")
	// errNotReplica rejects promotion of a server that is not (or is no
	// longer) a replica.
	errNotReplica = errors.New("service: not a replica")
)

// replayState is the cross-record scratch one log consumer carries —
// the startup replayer (service/wal.go) and a replica's live apply
// loop each own one. startup arms the checkpoint staleness witness
// (live replicas ignore the primary's checkpoint markers).
type replayState struct {
	batches  []tenantBatch // an ingest record's members: a tenant's key and its sorted batch
	covered  uint64        // snapshot baseline (startup staleness check)
	startup  bool
	fallback bool // restore fell back to an older retention slot
}

func newReplayState(covered uint64, startup bool) *replayState {
	return &replayState{covered: covered, startup: startup}
}

// decodeIngest turns an ingest record's payload back into the batches the
// live commit logged and applied (appendIngest's inverse): sorted batches
// back to back until the payload is spent, each addressed by its key, which
// aliases payload, and holding what that tenant's AddBatch was given. There
// is no member count to trust — a member is at least three bytes, and each
// batch's own count is bounded by the bytes behind it — so what a hostile
// payload can make this allocate is bounded by its length. An empty payload
// is refused: the live commit never logs a run with no admitted member. The
// tuple buffers are reused from record to record.
func (st *replayState) decodeIngest(payload []byte) ([]tenantBatch, error) {
	if len(payload) == 0 {
		return nil, errors.New("empty ingest record")
	}
	n := 0
	for rest := payload; len(rest) > 0; n++ {
		if n == len(st.batches) {
			st.batches = append(st.batches, tenantBatch{})
		}
		b := &st.batches[n]
		var err error
		if b.key, b.tuples, rest, err = tupleio.DecodeSortedBatch(b.tuples, rest); err != nil {
			return nil, fmt.Errorf("member %d: %w", n, err)
		}
	}
	return st.batches[:n], nil
}

// applyRecord applies one WAL record through the live commit's own
// applies — the one grammar both crash replay and a replica's live apply
// speak, which is what makes a promoted replica's state byte-identical
// to a crash-free primary replayed to the same LSN. A state record goes
// to applyStateLocked; a checkpoint marker and a probe change nothing.
// counted reports whether the record carried state. Startup replay calls
// it single-threaded; live apply calls it under s.mu.
func (s *Server) applyRecord(lsn uint64, typ wal.RecordType, payload []byte, st *replayState) (counted bool, err error) {
	switch typ {
	case wal.RecordCheckpoint:
		// Not state, but — on startup replay — a consistency witness:
		// the marker says a snapshot covering LSN c was durably
		// written. If the snapshot we restored claims less, we are
		// about to re-apply records the log was already pruned against.
		// A live replica ignores the primary's markers: its own
		// coverage is its applied LSN, not the primary's prune horizon.
		c, n := binary.Uvarint(payload)
		if n <= 0 {
			return false, fmt.Errorf("service: wal replay: record %d: bad checkpoint marker", lsn)
		}
		if st.startup && c > st.covered && !st.fallback {
			// A deliberate retention fallback restores an older snapshot
			// on purpose; there the replay-gap check in replayWAL (first
			// record must be covered+1) is the correctness guard instead.
			return false, fmt.Errorf("service: wal replay: log has a checkpoint covering LSN %d but the restored snapshot covers only %d — snapshot at %q is stale or missing; refusing to double-apply (restore the matching snapshot, or move the WAL dir aside to start fresh)",
				c, st.covered, s.cfg.SnapshotPath)
		}
		return false, nil
	case wal.RecordProbe:
		// A recovery probe: the record exists only to prove the log can
		// append and fsync again. It carries no state — skip it on
		// replay, and a live replica skips the shipped copy the same way.
		return false, nil
	}
	if err := s.applyStateLocked(typ, payload, st); err != nil {
		return false, fmt.Errorf("service: wal replay: record %d: %w", lsn, err)
	}
	return true, nil
}

// applyStateLocked applies one state record, decoded back into what the
// live commit applied: an ingest record into the sorted batch per tenant it
// was given live (applyGroupLocked: the same one AddBatch, of the same
// argument, nothing copied or re-encoded), a push into its one job
// (applyJobLocked), a forward into its records, each back through here. A
// tenant the log names is made whatever the caps say today.
// Callers hold s.mu, or run before any goroutine exists.
func (s *Server) applyStateLocked(typ wal.RecordType, payload []byte, st *replayState) error {
	switch typ {
	case wal.RecordIngest:
		batches, err := st.decodeIngest(payload)
		if err == nil {
			err = s.applyGroupLocked(batches)
		}
		for i := range batches {
			batches[i].tuples = pooledTuples(batches[i].tuples)
		}
		return err
	case wal.RecordPush:
		name, image, err := tupleio.DecodeTenantPrefix(payload)
		if err != nil {
			return err
		}
		return s.applyJobLocked(&ingestJob{op: opPush, key: name, image: image})
	case wal.RecordForward:
		return s.applyForwardRecordLocked(payload, st)
	}
	return fmt.Errorf("unknown record type %d", typ)
}

// ---------------------------------------------------------------------
// Primary side: serving replica connections on the stream listener.

// replicaMaxFrame is the frame cap advertised to replication followers.
// Snapshot frames carry a whole state image, so the cap is the WAL's
// own record bound rather than the ingest body limit.
const replicaMaxFrame uint32 = 1 << 30

// replicaWriteTimeout bounds each frame write so a stalled follower
// drops its connection (and redials) instead of pinning the serving
// goroutine; the follower resumes positionally.
const replicaWriteTimeout = 30 * time.Second

// defaultHeartbeatInterval is the primary→replica heartbeat cadence.
const defaultHeartbeatInterval = time.Second

func (s *Server) heartbeatInterval() time.Duration {
	if s.cfg.HeartbeatInterval > 0 {
		return s.cfg.HeartbeatInterval
	}
	return defaultHeartbeatInterval
}

// serveReplicaConn runs one replication follower connection: read the
// start request, then pump wal.Follow output (and heartbeats) at it
// until the connection dies or the server drains. The caller
// (serveStreamConn) has already completed the hello and owns the
// conn's registration, WaitGroup slot, and final Close.
func (s *Server) serveReplicaConn(c net.Conn, w *wal.WAL) {
	c.SetReadDeadline(time.Now().Add(streamHelloTimeout))
	var req [tupleio.ReplStartSize]byte
	if _, err := io.ReadFull(c, req[:]); err != nil {
		s.metrics.streamFrameErrors.Inc()
		return
	}
	// covered is the highest LSN the follower already holds; Follow's
	// from-argument speaks the same exclusive convention, delivering
	// covered+1 onward.
	covered, err := tupleio.ParseReplStart(req[:])
	if err != nil {
		s.metrics.streamFrameErrors.Inc()
		return
	}
	c.SetReadDeadline(time.Time{})

	connID := newRequestID()
	s.logf("replica: conn %s from %s following from LSN %d", connID, c.RemoteAddr(), covered+1)
	s.metrics.replicaConns.Add(1)
	defer s.metrics.replicaConns.Add(-1)

	// stop fires when the connection dies (the watcher read below — the
	// follower sends nothing after its start request — errors, including
	// the read deadline closeStreams sets at shutdown) or the server
	// drains. Closing the conn on s.done also unblocks an in-flight
	// frame write, so shutdown never waits out a stalled follower.
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		io.Copy(io.Discard, c)
		halt()
	}()
	go func() {
		select {
		case <-s.done:
			halt()
			c.Close()
		case <-stop:
		}
	}()

	// One write mutex serializes record frames (the Follow callback)
	// with the heartbeat ticker; each frame is one conn write.
	var wmu sync.Mutex
	frameBuf := make([]byte, 0, 64<<10)
	writeFrame := func(seq uint64, appendPayload func([]byte) []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		b := tupleio.AppendFrameHeader(frameBuf[:0], seq, 0)
		b = appendPayload(b)
		binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-tupleio.FrameHeaderSize))
		if cap(b) <= maxPooledBuffer {
			frameBuf = b
		}
		c.SetWriteDeadline(time.Now().Add(replicaWriteTimeout))
		_, err := c.Write(b)
		return err
	}

	go func() {
		tick := time.NewTicker(s.heartbeatInterval())
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := writeFrame(w.FollowableLSN(), tupleio.AppendReplHeartbeat); err != nil {
					halt()
					return
				}
				s.metrics.replicaHeartbeatsSent.Inc()
			case <-stop:
				return
			}
		}
	}()

	for {
		err := w.Follow(covered, stop, func(lsn uint64, typ wal.RecordType, payload []byte) error {
			if err := writeFrame(lsn, func(b []byte) []byte {
				return tupleio.AppendReplRecord(b, uint8(typ), payload)
			}); err != nil {
				return err
			}
			s.metrics.replicaRecordsSent.Inc()
			covered = lsn
			return nil
		})
		switch {
		case err == nil:
			return // stopped: conn gone or server draining
		case errors.Is(err, wal.ErrTruncated):
			// The follower's position is behind the prune horizon:
			// re-seed it with a freshly built snapshot and follow on
			// from the LSN that snapshot covers.
			seedCovered, file, serr := s.replicaSeedSnapshot()
			if serr != nil {
				s.logf("replica: conn %s: build seed snapshot: %v", connID, serr)
				return
			}
			if werr := writeFrame(seedCovered, func(b []byte) []byte {
				return tupleio.AppendReplSnapshot(b, file)
			}); werr != nil {
				return
			}
			s.metrics.replicaSnapshotsSent.Inc()
			s.logf("replica: conn %s re-seeded with snapshot covering LSN %d", connID, seedCovered)
			covered = seedCovered
		case errors.Is(err, wal.ErrClosed):
			return
		default:
			s.logf("replica: conn %s: %v", connID, err)
			return
		}
	}
}

// replicaSeedSnapshot builds an in-memory snapshot file for a follower
// that fell behind the prune horizon. The barrier job afterwards
// guarantees covered never exceeds the durable frontier — a re-seeded
// replica must not hold state the primary's own crash recovery could
// lose.
func (s *Server) replicaSeedSnapshot() (covered uint64, file []byte, err error) {
	if covered, file, _, _, err = s.buildSnapshot(); err != nil {
		return 0, nil, err
	}
	if err := s.commit(&ingestJob{op: opBarrier}); err != nil {
		return 0, nil, err
	}
	return covered, file, nil
}

// ---------------------------------------------------------------------
// Replica side: the follower loop, live apply, and promotion.

// startFollower wires the replication follower into the server. Called
// from New after recovery; appliedLSN already holds the restored
// snapshot's covered LSN.
func (s *Server) startFollower() {
	s.caughtUpAt.Store(time.Now().UnixNano())
	s.follower = replica.Start(replica.Config{
		Addr:             s.cfg.PrimaryAddr,
		StartLSN:         func() uint64 { return s.appliedLSN.Load() },
		ApplyRecord:      s.replicaApply,
		InstallSnapshot:  s.replicaInstallSnapshot,
		OnPrimaryLSN:     s.observePrimaryLSN,
		HeartbeatTimeout: s.cfg.PrimaryTimeout,
		OnPrimaryLoss: func() {
			// Fired from inside the follower goroutine; promote on a
			// fresh one so Promote's wait-for-follower-exit can't
			// deadlock against the loss path itself.
			go func() {
				s.logf("replica: primary %s lost; auto-promoting", s.cfg.PrimaryAddr)
				if err := s.Promote(); err != nil {
					s.logf("replica: auto-promote: %v", err)
				}
			}()
		},
		MaxFrame: replicaMaxFrame,
		Logf:     s.logger.Printf,
	})
}

// replicaApply applies one shipped WAL record under the driver lock — as
// a primary's committer applies a record its log holds — and advances the
// applied LSN inside it, so a concurrent snapshot always records a covered
// LSN consistent with the marshaled state.
func (s *Server) replicaApply(lsn uint64, typ uint8, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.applyRecord(lsn, wal.RecordType(typ), payload, s.replState); err != nil {
		return err
	}
	s.appliedLSN.Store(lsn)
	s.metrics.replicaRecordsApplied.Inc()
	if lsn >= s.primaryLSN.Load() {
		s.caughtUpAt.Store(time.Now().UnixNano())
	}
	return nil
}

// replicaInstallSnapshot re-seeds the whole registry from a primary
// snapshot frame: every tenant in the image is (re)loaded, every
// local tenant absent from it is emptied, and the sites' marks are the
// image's — afterwards the state is exactly "the primary at LSN covered".
func (s *Server) replicaInstallSnapshot(covered uint64, data []byte) error {
	_, images, marks, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	inImage := make(map[string]bool, len(images))
	for _, ti := range images {
		inImage[ti.name] = true
	}
	for _, t := range s.tenantList() {
		if !inImage[t.name] {
			s.installImageLocked(t, nil)
		}
	}
	if err := s.installSnapshotLocked(images); err != nil {
		return fmt.Errorf("service: install snapshot: %w", err)
	}
	s.marks = marks
	s.appliedLSN.Store(covered)
	s.metrics.replicaSnapshotsInstalled.Inc()
	if covered >= s.primaryLSN.Load() {
		s.caughtUpAt.Store(time.Now().UnixNano())
	}
	s.logf("replica: installed snapshot covering LSN %d (%d tenants)", covered, len(images))
	return nil
}

// observePrimaryLSN tracks the primary's frontier (monotonically — a
// reconnect may replay an older heartbeat) for the lag gauges.
func (s *Server) observePrimaryLSN(lsn uint64) {
	for {
		cur := s.primaryLSN.Load()
		if lsn <= cur || s.primaryLSN.CompareAndSwap(cur, lsn) {
			break
		}
	}
	if s.appliedLSN.Load() >= s.primaryLSN.Load() {
		s.caughtUpAt.Store(time.Now().UnixNano())
	}
}

// replicationLag reports how far behind the primary this replica is:
// the LSN delta and, when behind, how long since it was last caught
// up. Both are 0 on a caught-up (or promoted) server.
func (s *Server) replicationLag() (records uint64, seconds float64) {
	applied, primary := s.appliedLSN.Load(), s.primaryLSN.Load()
	if primary > applied {
		records = primary - applied
		seconds = time.Since(time.Unix(0, s.caughtUpAt.Load())).Seconds()
	}
	return records, seconds
}

// roleNow is the live role: cfg.role() except that a promoted
// ex-replica serves as a coordinator.
func (s *Server) roleNow() string {
	if s.cfg.PrimaryAddr == "" {
		return s.cfg.role()
	}
	if s.replicaMode.Load() {
		return "replica"
	}
	return "coordinator"
}

// Promote turns a replica into a primary: detach from the old primary,
// seal the applied LSN, open this node's own WAL continuing the old
// primary's LSN space, and start accepting writes. Idempotent-by-refusal: a second call returns
// errNotReplica.
func (s *Server) Promote() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closing.Load() {
		return errShuttingDown
	}
	if !s.replicaMode.Load() {
		return errNotReplica
	}
	// Detach first: no record may land after the seal.
	if s.follower != nil {
		s.follower.Stop()
	}
	sealed := s.appliedLSN.Load()
	if s.cfg.WALDir != "" {
		if err := s.openWALAt(sealed + 1); err != nil {
			return err
		}
	}
	s.replicaMode.Store(false)
	s.metrics.replicaPromotions.Inc()
	s.logf("promoted to primary at LSN %d (wal=%q)", sealed, s.cfg.WALDir)
	// Persist the sealed state immediately (when configured): the new
	// log is empty, so the snapshot's covered LSN is exactly the seal.
	if err := s.Snapshot(); err != nil {
		s.logf("post-promote snapshot: %v", err)
	}
	return nil
}

// openWALAt opens a brand-new WAL whose first record continues the
// sealed LSN space. It refuses a directory that already holds
// segments: mixing an old log's LSNs with the primary's would corrupt
// recovery.
func (s *Server) openWALAt(firstLSN uint64) error {
	if entries, err := s.fs.ReadDir(s.cfg.WALDir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
				return fmt.Errorf("service: promote: wal dir %q already holds segments; move them aside first", s.cfg.WALDir)
			}
		}
	}
	return s.openWAL(firstLSN)
}

// handlePromote is POST /v1/promote: admin-gated manual failover. With
// no AdminToken configured the endpoint is disabled outright (403) —
// an unauthenticated promote would let anyone split-brain the pair.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AdminToken == "" {
		s.httpError(w, http.StatusForbidden, errors.New("promotion disabled: no admin token configured"))
		return
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get("X-Admin-Token")), []byte(s.cfg.AdminToken)) != 1 {
		s.httpError(w, http.StatusForbidden, errors.New("bad admin token"))
		return
	}
	if err := s.Promote(); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, errNotReplica):
			status = http.StatusConflict
		case errors.Is(err, errShuttingDown):
			status = http.StatusServiceUnavailable
		}
		s.httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "lsn": s.appliedLSN.Load()})
}
