package service

import (
	"fmt"
	"time"

	"github.com/streamagg/correlated/internal/wal"
)

// Durable ingest: every accepted ingest batch and forwarded site record is
// appended to the write-ahead log in Config.WALDir *before* the HTTP
// acknowledgement, and startup is restore-snapshot-then-replay-suffix. The
// acknowledgement waits for its group's fsync, so an acknowledged request
// survives kill -9.
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

// openWAL opens the log. firstLSN numbers the first
// record of a brand-new log: the restored snapshot's coverage + 1.
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
	s.wal = w
	return nil
}

// replayWAL re-applies every record the snapshot does not cover, in log
// order, through the applies the live commit uses (applyRecord,
// replication.go). Any failure is fatal to startup: a daemon must not serve
// state it knows is missing acknowledged data. Replay runs before any
// goroutine is started, so calling the *Locked tenant helpers without
// s.mu is safe; the apply makes each tenant the log names whatever the
// governance caps say — acknowledged data outranks a cap that may have
// been lowered since. fellBack says the restore took an older retention
// slot, which relaxes the checkpoint witness (applyRecord).
func (s *Server) replayWAL(covered uint64, fellBack bool) error {
	// Continuity: the log must begin no later than where the snapshot
	// left off. A later oldest LSN means records between were pruned (a
	// checkpoint for a newer snapshot this boot did not restore) or were
	// never this log's (it was opened on a snapshot that is gone) —
	// replaying around the hole, or serving over it, would silently drop
	// acknowledged data. An empty log is held to it too.
	if oldest := s.wal.OldestLSN(); oldest > covered+1 {
		return fmt.Errorf("service: wal replay: log starts at LSN %d but the restored snapshot covers only %d — the records between were pruned; restore the snapshot the log was checkpointed against", oldest, covered)
	}
	start := time.Now()
	var records uint64
	st := &replayState{covered: covered, fallback: fellBack}
	err := s.wal.Replay(covered, func(lsn uint64, typ wal.RecordType, payload []byte) error {
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
	s.appliedLSN.Store(s.wal.LastLSN())
	dur := time.Since(start)
	s.metrics.walReplayRecords.Set(int64(records))
	s.metrics.walReplaySeconds.Set(dur.Seconds())
	if records > 0 {
		s.logf("wal: replayed %d records in %s (log suffix past LSN %d)", records, dur, covered)
	}
	return nil
}
