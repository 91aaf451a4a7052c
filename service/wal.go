package service

import (
	"fmt"
	"time"

	"github.com/streamagg/correlated/internal/wal"
)

// Durable ingest: with Config.WALDir set, every accepted ingest batch and
// forwarded site record is appended to a write-ahead log *before* the HTTP
// acknowledgement, and startup becomes restore-snapshot-then-replay-
// suffix. The acknowledgement waits for its group's fsync, so an
// acknowledged request survives kill -9 — the durability window shrinks
// from the snapshot interval to zero.
//
// Three invariants make recovery crash-exact. First, "one writer": while
// the server runs only the committer (pipeline.go) appends to, syncs,
// rewinds or probes the log — the log has no goroutine of its own — so a
// record is in the log exactly when the barrier its waiter stood behind
// returned nil. The tenant registry follows: only the apply of a logged write
// makes a tenant, live and on replay alike. Second, "the committer applies
// in LSN order after the barrier": only the records the log holds once the
// group's barrier returns, under the driver lock (s.mu), through the very
// functions the replayer re-applies them with (applyGroupLocked,
// applyForwardLocked), so replay reconstructs the identical sequence of engine
// calls. Third, "the log holds what each tenant's one AddBatch was
// given": a summary's state depends on where its AddBatch calls were cut
// and on the batch each was handed, and each tenant gets exactly one
// AddBatch per ingest record — its requests of that group concatenated and
// sorted by y with the summary's own sort, which it then leaves alone —
// live and on replay alike; nothing else ever cuts a batch. With the
// canonical marshaling ("equal state ⇒ equal bytes"), a recovered server's
// /v1/summary is byte-identical to a crash-free run over the same
// acknowledged requests grouped the same way.
//
// Snapshots and the WAL compose rather than compete: the snapshot file
// embeds the LSN it covers, a completed snapshot commits a checkpoint
// marker, and behind the durable marker the WAL prunes every sealed
// segment whose records the snapshot already captures — on a site, only
// those its coordinator has confirmed too (forward.go).

// openWAL opens the log — the one place its options are built, so the
// log a replica opens at promotion carries every hook the primary's
// does — and publishes it. firstLSN numbers the first record of a
// brand-new log: the restored snapshot's coverage + 1 at start-up, a
// promoted replica's sealed LSN + 1.
func (s *Server) openWAL(firstLSN uint64) error {
	w, err := wal.Open(s.cfg.WALDir, wal.Options{
		SegmentBytes: s.cfg.WALSegmentBytes,
		FirstLSN:     firstLSN,
		FS:           s.fs,
		OnFsync:      func(d time.Duration) { s.metrics.walFsync.Observe(d.Seconds()) },
	})
	if err != nil {
		return fmt.Errorf("service: wal: %w", err)
	}
	s.wal.Store(w)
	return nil
}

// walRef is the log: nil without Config.WALDir, and on a replica until
// its promotion opens one.
func (s *Server) walRef() *wal.WAL { return s.wal.Load() }

// replayWAL re-applies every record the snapshot does not cover, in log
// order, through the applies the live commit uses — the shared
// applyRecord switch (replication.go), which a live replica also
// speaks. Any failure is fatal to startup: a daemon must not serve
// state it knows is missing acknowledged data. Replay runs before any
// goroutine is started, so calling the *Locked tenant helpers without
// s.mu is safe; the apply makes each tenant the log names whatever the
// governance caps say — acknowledged data outranks a cap that may have
// been lowered since.
func (s *Server) replayWAL(covered uint64) error {
	start := time.Now()
	var records uint64
	st := newReplayState(covered, true)
	st.fallback = s.snapFellBack
	first := true
	err := s.walRef().Replay(covered, func(lsn uint64, typ wal.RecordType, payload []byte) error {
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
	s.appliedLSN.Store(s.walRef().LastLSN())
	dur := time.Since(start)
	s.walReplayed = records
	s.metrics.walReplayRecords.Set(int64(records))
	s.metrics.walReplaySeconds.Set(dur.Seconds())
	if records > 0 {
		s.logf("wal: replayed %d records in %s (log suffix past LSN %d)", records, dur, covered)
	}
	return nil
}
