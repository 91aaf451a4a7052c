package service

import (
	"fmt"
	"time"

	"github.com/streamagg/correlated/internal/wal"
)

// Durable ingest: every accepted ingest batch and forwarded site record is
// appended to the write-ahead log in Config.WALDir *before* the HTTP
// acknowledgement, and startup is the newest checkpoint, then the records
// after it. The
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
// The log is a server's one artefact: a checkpoint is a commit group of
// its own in it (checkpoint.go), behind which it prunes every sealed
// segment the checkpoint's images make redundant — on a site, only those
// its targets have confirmed too (forward.go).

// openWAL opens the log.
func (s *Server) openWAL() error {
	w, err := wal.Open(s.cfg.WALDir, wal.Options{
		SegmentBytes: s.cfg.WALSegmentBytes,
		FS:           s.fs,
		OnFsync:      func(d time.Duration) { s.metrics.walFsync.Observe(d.Seconds()) },
	})
	if err != nil {
		return fmt.Errorf("service: wal: %w", err)
	}
	s.wal = w
	return nil
}

// replayWAL rebuilds the state from the log: the newest checkpoint's images
// and then every record after it, in log order, through the applies the
// live commit uses (applyRecord, replication.go). Any failure is fatal to
// startup: a daemon must not serve state it knows is missing acknowledged
// data. Replay runs before any goroutine is started, so calling the
// *Locked tenant helpers without s.mu is safe; the apply makes each tenant
// the log names whatever the governance caps say — acknowledged data
// outranks a cap that may have been lowered since.
func (s *Server) replayWAL() error {
	// Continuity: a log whose oldest record is not its first must hold a
	// checkpoint whole, or the records before it are gone.
	ck := s.wal.LastCheckpoint()
	if oldest := s.wal.OldestLSN(); oldest > max(ck.First, 1) {
		return fmt.Errorf("service: wal replay: the log starts at LSN %d and holds no whole checkpoint from there — the records before it are gone; start on the state directory the log was pruned in", oldest)
	}
	start := time.Now()
	var records uint64
	st := &replayState{}
	err := s.wal.Replay(max(ck.First, 1)-1, func(lsn uint64, typ wal.RecordType, payload []byte) error {
		counted, err := s.applyRecord(lsn, typ, payload, st)
		if counted && lsn > ck.LSN {
			records++
		}
		return err
	})
	if err != nil {
		return err
	}
	s.appliedLSN.Store(s.wal.LastLSN())
	s.restored = s.restored || ck.LSN != 0
	dur := time.Since(start)
	s.metrics.walReplayRecords.Set(int64(records))
	s.metrics.walReplaySeconds.Set(dur.Seconds())
	switch {
	case ck.LSN != 0:
		s.logf("wal: replayed %d records in %s after the checkpoint at LSN %d", records, dur, ck.LSN)
	case records > 0:
		s.logf("wal: replayed %d records in %s", records, dur)
	}
	return nil
}
