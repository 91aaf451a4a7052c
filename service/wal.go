package service

import (
	"fmt"
	"time"

	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// Durable ingest: with Config.WALDir set, every accepted ingest batch
// and push image is appended to a write-ahead log *before* the HTTP
// acknowledgement, and startup becomes restore-snapshot-then-replay-
// suffix. Under -wal-fsync=always an acknowledged request therefore
// survives kill -9 — the durability window shrinks from the snapshot
// interval to zero.
//
// Two invariants make recovery crash-exact. First, "log order == apply
// order": the engine apply and the WAL append for one commit group (or
// push) happen under the same critical section of the driver lock
// (s.mu), so the replayer — which re-applies records through the very
// same entry points (applyGroupLocked, MergeMarshaled, Reset) —
// reconstructs the identical sequence of engine calls. Second, "batch
// boundaries are the log's": a summary's state depends on where its
// AddBatch calls were cut, and each tenant gets exactly one AddBatch per
// group record — its members of that record, in the client order the
// record keeps — live and on replay alike. Nothing else (a snapshot
// tick, a query, a stats read) ever cuts a batch. Together with the
// canonical marshaling ("equal state ⇒ equal bytes"), a recovered
// server's /v1/summary is byte-identical to a crash-free run over the
// same acknowledged requests grouped the same way.
//
// Snapshots and the WAL compose rather than compete: the snapshot file
// embeds the LSN it covers, a completed snapshot appends a checkpoint
// marker, and the WAL then prunes every sealed segment whose records
// the snapshot already captures.
//
// The site role's push-then-reset delta protocol is a two-record round:
// RecordReset — appended in the same critical section as the engine
// Reset, carrying the marshaled image that is about to ship — then
// either RecordPushAck (the coordinator acknowledged) or RecordFoldback
// (the ship failed and the image was merged back; one record carries
// both the merge and the round close, so replay can never double-apply
// it). Replay applies the reset at its logged position (so ingests
// interleaved with the HTTP push land in the post-reset state, exactly
// as they did live), stashes the image, and discards it when the round
// closes; a round the crash cut short folds the stashed image back into
// the engine — the same fold-back the live path performs when the
// coordinator is unreachable — so acknowledged ingest is never lost,
// and once the ack record is durable the image is never re-pushed
// upstream. The remaining at-least-once window is a crash after the
// coordinator processed the image but before the ack record's fsync —
// one append, not a whole snapshot write.

// openWAL opens the log — the one place its options are built, so the
// log a replica opens at promotion carries every hook the primary's
// does. firstLSN numbers the first record of a brand-new log (0 means
// 1); a promoted replica passes its sealed LSN + 1. The pointer is
// published under the driver lock: promotion installs it at runtime,
// while stats and metrics handlers read it through walRef.
func (s *Server) openWAL(firstLSN uint64) error {
	policy, err := wal.ParseSyncPolicy(s.cfg.WALFsync)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	w, err := wal.Open(s.cfg.WALDir, wal.Options{
		SegmentBytes: s.cfg.WALSegmentBytes,
		Sync:         policy,
		SyncEvery:    s.cfg.WALFsyncInterval,
		FirstLSN:     firstLSN,
		FS:           s.fs,
		OnFsync:      func(d time.Duration) { s.metrics.walFsync.Observe(d.Seconds()) },
		OnSyncError: func(err error) {
			s.logf("wal: background fsync: %v", err)
			s.noteBgSyncError(err)
		},
	})
	if err != nil {
		return fmt.Errorf("service: wal: %w", err)
	}
	s.mu.Lock()
	s.wal = w
	s.walSyncAlways = policy == wal.SyncAlways
	s.mu.Unlock()
	return nil
}

// logPush appends a merged push image to the WAL, behind its tenant
// prefix (callers hold s.mu). Ingest is logged by the commit pipeline's
// logIngestGroup (pipeline.go): one record per commit group, carrying
// the member batches in commit order.
func (s *Server) logPush(t *tenant, image []byte) error {
	if s.wal == nil {
		return nil
	}
	buf := append(tupleio.AppendTenant(s.groupBuf[:0], t.name), image...)
	_, err := s.wal.Append(wal.RecordPush, buf)
	s.groupBuf = pooledBytes(buf)
	return err
}

// logReset appends the site role's push-round begin record: the engine
// was reset here and image is in flight. Callers hold s.mu, immediately
// after the engine Reset it records.
func (s *Server) logReset(image []byte) error {
	if s.wal == nil {
		return nil
	}
	_, err := s.wal.Append(wal.RecordReset, image)
	return err
}

// logPushAck closes the push round opened by logReset: the coordinator
// has the image, so replay must never re-push it.
func (s *Server) logPushAck() error {
	if s.wal == nil {
		return nil
	}
	_, err := s.wal.Append(wal.RecordPushAck, nil)
	return err
}

// logFoldback closes a push round whose ship failed: the image was
// merged back into the engine. Callers hold s.mu around the merge and
// this append.
func (s *Server) logFoldback(image []byte) error {
	if s.wal == nil {
		return nil
	}
	_, err := s.wal.Append(wal.RecordFoldback, image)
	return err
}

// replayWAL re-applies every record the snapshot does not cover, in log
// order, through the same engine entry points the handlers use — the
// shared applyRecord switch (replication.go), which a live replica also
// speaks. Any failure is fatal to startup: a daemon must not serve
// state it knows is missing acknowledged data. Replay runs before any
// goroutine is started, so calling the *Locked tenant helpers without
// s.mu is safe; tenant creation during replay bypasses the governance
// caps — acknowledged data outranks a cap that may have been lowered
// since.
func (s *Server) replayWAL(covered uint64) error {
	start := time.Now()
	var records uint64
	st := newReplayState(covered, true)
	st.fallback = s.snapFellBack
	first := true
	err := s.wal.Replay(covered, func(lsn uint64, typ wal.RecordType, payload []byte) error {
		if first {
			first = false
			// Continuity: the suffix must begin exactly where the
			// snapshot left off. A later first LSN means records between
			// were pruned (a checkpoint for a newer snapshot this boot
			// did not restore) — replaying around the hole would silently
			// drop acknowledged data.
			if lsn > covered+1 {
				return fmt.Errorf("service: wal replay: log starts at LSN %d but the restored snapshot covers only %d — the records between were pruned; restore the snapshot the log was checkpointed against", lsn, covered)
			}
		}
		counted, err := s.applyRecord(lsn, typ, payload, st)
		if err != nil {
			return err
		}
		if counted {
			records++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(st.inFlight) > 0 {
		// The crash cut a push round short: the coordinator may or may
		// not have received this image. Fold it back — the same choice
		// the live path makes when a push fails — so the next round
		// ships the union. Delivery is at-least-once across this one
		// window; it is never silent loss.
		if err := s.def.eng.MergeMarshaled(st.inFlight); err != nil {
			return fmt.Errorf("service: wal replay: fold back in-flight push image: %w", err)
		}
		s.logf("wal: push round was in flight at crash; image folded back for re-push")
	}
	dur := time.Since(start)
	s.walReplayed = records
	s.metrics.walReplayRecords.Set(int64(records))
	s.metrics.walReplaySeconds.Set(dur.Seconds())
	if records > 0 {
		s.logf("wal: replayed %d records in %s (log suffix past LSN %d)", records, dur, covered)
	}
	return nil
}
