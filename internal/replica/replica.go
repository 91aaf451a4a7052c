// Package replica is the follower half of corrd's replication
// subsystem: it dials the primary's stream listener, performs the
// replication handshake (hello with StreamFormatReplica, then a start
// request carrying the LSN the follower's restored state already
// covers), and pumps the primary's replication frames into caller
// hooks — one per WAL record, one per snapshot re-seed, one per
// heartbeat. The package owns the connection lifecycle: reconnect with
// capped exponential backoff, positional resume (each redial re-asks
// from the LSN the hooks have durably applied), and primary-loss
// detection (no frame and no successful redial within the configured
// timeout), which is the trigger for automatic failover. What the
// records mean is entirely the caller's business — the service wires
// these hooks into the same applyRecord path its own crash replay
// uses, which is what makes a promoted replica byte-exact.
package replica

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/streamagg/correlated/internal/tupleio"
)

// Config wires a Follower to its primary and its consumer.
type Config struct {
	// Addr is the primary's stream listener address (host:port).
	Addr string
	// StartLSN is called before every connection attempt and returns
	// the LSN the follower's state covers; the primary streams records
	// with LSN > StartLSN().
	StartLSN func() uint64
	// ApplyRecord consumes one WAL record. An error is fatal: the
	// follower's state can no longer be trusted to converge, so the
	// loop stops and Err reports it.
	ApplyRecord func(lsn uint64, typ uint8, payload []byte) error
	// InstallSnapshot re-seeds the follower from a primary snapshot
	// whose covered LSN is past the follower's position (the primary
	// pruned the records in between). Fatal on error, like ApplyRecord.
	InstallSnapshot func(covered uint64, data []byte) error
	// OnPrimaryLSN observes the primary's last LSN whenever a frame
	// reveals it (records and heartbeats alike) — the lag numerator.
	OnPrimaryLSN func(lsn uint64)
	// HeartbeatTimeout is how long the follower tolerates total silence
	// — no frame on a live connection, no successful redial — before
	// declaring the primary lost. 0 disables loss detection (the
	// follower retries forever).
	HeartbeatTimeout time.Duration
	// OnPrimaryLoss fires once when HeartbeatTimeout expires; the
	// follower stops afterwards. This is the automatic-failover trigger.
	OnPrimaryLoss func()
	// DialTimeout bounds each connection attempt; 0 means 5s.
	DialTimeout time.Duration
	// MaxFrame caps replication frame payloads (snapshot frames are the
	// big ones); 0 means 1 GiB, matching the WAL's own record bound.
	MaxFrame uint32
	// Logf, when set, receives connection-lifecycle log lines.
	Logf func(format string, args ...any)
}

const (
	defaultDialTimeout = 5 * time.Second
	defaultMaxFrame    = 1 << 30
	backoffFloor       = 50 * time.Millisecond
	backoffCeil        = 2 * time.Second
)

// ErrPrimaryLost is the Follower's exit error after HeartbeatTimeout
// of total silence from the primary.
var ErrPrimaryLost = errors.New("replica: primary lost (heartbeat timeout)")

// ErrRejected reports a primary that answered the handshake but
// refused replication (no WAL, or an incompatible stream version or
// replication format — what a corrd on the other side of the storage
// version break answers) — retrying cannot help, so the follower stops.
var ErrRejected = errors.New("replica: primary refused replication")

// Follower is a running replication loop. Stop it with Stop; Done
// closes when the loop has exited and Err reports why.
type Follower struct {
	cfg  Config
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	err  error
	conn net.Conn // live connection, for Stop to unblock reads

	stopOnce sync.Once
}

// Start launches the replication loop.
func Start(cfg Config) *Follower {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = defaultMaxFrame
	}
	f := &Follower{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go f.run()
	return f
}

// Stop ends the loop (idempotent) and waits for it to exit.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.mu.Lock()
		if f.conn != nil {
			f.conn.Close() // unblock a blocked read
		}
		f.mu.Unlock()
	})
	<-f.done
}

// Done closes when the loop has exited.
func (f *Follower) Done() <-chan struct{} { return f.done }

// Err reports why the loop exited: nil after Stop, ErrPrimaryLost
// after a heartbeat timeout, ErrRejected or a fatal hook error
// otherwise. Valid once Done is closed.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// run is the reconnect loop: dial, stream until the connection dies,
// back off, repeat — tracking the time since the primary was last
// heard from across attempts, which is what primary-loss means.
func (f *Follower) run() {
	defer close(f.done)
	lastContact := time.Now()
	backoff := backoffFloor
	for {
		if f.stopped() {
			return
		}
		contact, err := f.streamOnce(&lastContact)
		if f.stopped() {
			return
		}
		if err != nil && (errors.Is(err, ErrRejected) || isFatal(err)) {
			f.setErr(err)
			f.logf("replica: fatal: %v", err)
			return
		}
		if contact {
			backoff = backoffFloor
		}
		if err != nil {
			f.logf("replica: connection to %s lost: %v (retrying in %v)", f.cfg.Addr, err, backoff)
		}
		if f.cfg.HeartbeatTimeout > 0 && time.Since(lastContact) > f.cfg.HeartbeatTimeout {
			f.setErr(ErrPrimaryLost)
			f.logf("replica: primary %s silent for %v, declaring it lost", f.cfg.Addr, time.Since(lastContact).Round(time.Millisecond))
			if f.cfg.OnPrimaryLoss != nil {
				f.cfg.OnPrimaryLoss()
			}
			return
		}
		select {
		case <-time.After(backoff):
		case <-f.stop:
			return
		}
		if backoff *= 2; backoff > backoffCeil {
			backoff = backoffCeil
		}
	}
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

// fatalError marks a hook failure: the local state diverged, so
// reconnecting cannot help.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

func isFatal(err error) bool {
	var fe fatalError
	return errors.As(err, &fe)
}

// streamOnce runs one connection to completion. contact reports
// whether the primary was heard from at all (handshake completed), and
// lastContact is advanced on every frame.
func (f *Follower) streamOnce(lastContact *time.Time) (contact bool, err error) {
	conn, err := net.DialTimeout("tcp", f.cfg.Addr, f.cfg.DialTimeout)
	if err != nil {
		return false, err
	}
	f.mu.Lock()
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		conn.Close()
	}()
	if f.stopped() {
		// Stop looked for a conn to close before this one was published;
		// nothing else would end the frame loop below.
		return false, nil
	}

	// Handshake: hello, reply, start request — all under one deadline.
	conn.SetDeadline(time.Now().Add(f.cfg.DialTimeout))
	if _, err := conn.Write(tupleio.AppendHello(nil, tupleio.StreamFormatReplica)); err != nil {
		return false, err
	}
	var reply [tupleio.HelloReplySize]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		return false, err
	}
	status, maxFrame, err := tupleio.ParseHelloReply(reply[:])
	if err != nil {
		return false, err
	}
	if status == tupleio.HelloBadFormat {
		return true, fmt.Errorf("%w: it does not speak replication format %d — primary and replica are on opposite sides of a storage version break (see README \"Storage format\")",
			ErrRejected, tupleio.StreamFormatReplica)
	}
	if status != tupleio.HelloOK {
		return true, fmt.Errorf("%w: hello status %d", ErrRejected, status)
	}
	if maxFrame > f.cfg.MaxFrame {
		maxFrame = f.cfg.MaxFrame
	}
	start := f.cfg.StartLSN()
	if _, err := conn.Write(tupleio.AppendReplStart(nil, start)); err != nil {
		return true, err
	}
	*lastContact = time.Now()
	f.logf("replica: following %s from LSN %d", f.cfg.Addr, start)

	// Frame loop. The read deadline is the per-frame heartbeat check:
	// the primary sends heartbeats well inside HeartbeatTimeout, so a
	// deadline expiry means silence, not idleness.
	fr := tupleio.NewFrameReader(conn, maxFrame)
	var payload []byte
	for {
		if f.cfg.HeartbeatTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(f.cfg.HeartbeatTimeout))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		seq, out, err := fr.Next(payload)
		if err != nil {
			return true, err
		}
		payload = out
		*lastContact = time.Now()
		kind, walType, rest, err := tupleio.DecodeReplPayload(payload)
		if err != nil {
			return true, err
		}
		switch kind {
		case tupleio.ReplRecord:
			if f.cfg.OnPrimaryLSN != nil {
				f.cfg.OnPrimaryLSN(seq)
			}
			if err := f.cfg.ApplyRecord(seq, walType, rest); err != nil {
				return true, fatalError{fmt.Errorf("apply record %d: %w", seq, err)}
			}
		case tupleio.ReplSnapshot:
			if f.cfg.OnPrimaryLSN != nil {
				f.cfg.OnPrimaryLSN(seq)
			}
			if err := f.cfg.InstallSnapshot(seq, rest); err != nil {
				return true, fatalError{fmt.Errorf("install snapshot covering %d: %w", seq, err)}
			}
		case tupleio.ReplHeartbeat:
			if f.cfg.OnPrimaryLSN != nil {
				f.cfg.OnPrimaryLSN(seq)
			}
		}
	}
}
