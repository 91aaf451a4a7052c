package tupleio

// Replication wire format: the WAL-shipping transport a replica speaks
// to its primary, riding the same stream listener (and the same hello /
// reply / frame grammar) as the ingest transport. A replica connects,
// sends a hello with StreamFormatReplica, reads the standard reply, and
// then — instead of pumping ingest frames — sends one fixed-size start
// request naming the LSN its restored state already covers:
//
//	start   "CRP1" startLSN:uint64 LE                    12 bytes
//
// From then on the connection is one-way: the primary streams frames
// (the standard 12-byte frame header) whose payloads open with a kind
// byte:
//
//	record     kind=1 walType:uint8 payload...   seq = the record's LSN
//	snapshot   kind=2 snapshot file bytes        seq = the covered LSN
//	heartbeat  kind=3 (nothing)                  seq = primary last LSN
//
// Record frames are WAL records verbatim — the same bytes, the same
// types, the same order — so the replica's live apply and the primary's
// crash replay share one grammar, which is what makes the promoted
// replica byte-exact. A snapshot frame is sent when the replica's start
// LSN has been pruned past (checkpointed) on the primary: the replica
// installs the snapshot file bytes as if restoring at startup and
// resumes at the covered LSN. Heartbeats carry the primary's last LSN
// so an idle replica can still measure its lag and detect primary loss.
//
// There are no acks in this direction; flow control is the TCP window,
// and resume-after-reconnect is positional (the replica re-sends the
// LSN it reached). A replica that falls behind the prune horizon is
// simply re-seeded by the next snapshot frame, so the protocol has no
// unbounded retention obligation.

import (
	"encoding/binary"
	"fmt"
)

const (
	// StreamFormatReplica marks a connection as a replication follower:
	// after the hello reply the client sends a start request and then
	// only reads. The number versions the shipped log grammar: it moved
	// 3 → 4 with WAL segment version 2 (every ingest and push record
	// keyed), 4 → 5 with version 3 (an ingest member is a sorted batch),
	// 5 → 6 with version 4 (forwarded site records in place of the push
	// round's) and 6 → 7 with version 5 (a sorted batch's rows
	// Rice-coded), so a primary and a replica on opposite sides of a
	// break end in HelloBadFormat instead of misreading each other's
	// records.
	StreamFormatReplica = 7

	// HelloNoWAL rejects a replication hello because the server runs
	// without a WAL — there is no log to ship.
	HelloNoWAL uint8 = 3

	// AckReadOnly rejects an ingest frame because the server is a
	// replica: writes must go to the primary (HTTP mirrors this with
	// 503). The connection stays usable — the sender may be probing.
	AckReadOnly uint8 = 6

	// ReplStartSize is the fixed size of the replica's start request.
	ReplStartSize = 12

	// Replication frame payload kinds (first payload byte).
	ReplRecord    uint8 = 1
	ReplSnapshot  uint8 = 2
	ReplHeartbeat uint8 = 3
)

// replStartMagic opens the start request; distinct from the hello and
// reply magics so a desynchronized peer is caught immediately.
var replStartMagic = [4]byte{'C', 'R', 'P', '1'}

// AppendReplStart appends the replica's start request: the primary
// should stream records with LSN > startLSN.
func AppendReplStart(buf []byte, startLSN uint64) []byte {
	buf = append(buf, replStartMagic[:]...)
	return binary.LittleEndian.AppendUint64(buf, startLSN)
}

// ParseReplStart validates a start request and returns its LSN.
func ParseReplStart(b []byte) (startLSN uint64, err error) {
	if len(b) != ReplStartSize {
		return 0, fmt.Errorf("%w: repl start is %d bytes, want %d", ErrBadStream, len(b), ReplStartSize)
	}
	if [4]byte(b[:4]) != replStartMagic {
		return 0, fmt.Errorf("%w: bad repl start magic %q", ErrBadStream, b[:4])
	}
	return binary.LittleEndian.Uint64(b[4:12]), nil
}

// AppendReplRecord appends a record frame payload: the kind byte, the
// WAL record type, and the record payload verbatim. The caller frames
// it with AppendFrameHeader(seq = the record's LSN).
func AppendReplRecord(buf []byte, walType uint8, payload []byte) []byte {
	buf = append(buf, ReplRecord, walType)
	return append(buf, payload...)
}

// AppendReplSnapshot appends a snapshot frame payload: the kind byte
// then the snapshot file bytes verbatim (framed with seq = the LSN the
// snapshot covers).
func AppendReplSnapshot(buf []byte, snapshot []byte) []byte {
	buf = append(buf, ReplSnapshot)
	return append(buf, snapshot...)
}

// AppendReplHeartbeat appends a heartbeat frame payload (framed with
// seq = the primary's last LSN).
func AppendReplHeartbeat(buf []byte) []byte {
	return append(buf, ReplHeartbeat)
}

// DecodeReplPayload splits a replication frame payload into its kind,
// the WAL record type (record frames only), and the remaining bytes
// (record payload or snapshot file bytes). Heartbeats must be exactly
// the kind byte; a record frame must at least carry its type byte.
func DecodeReplPayload(b []byte) (kind, walType uint8, rest []byte, err error) {
	if len(b) == 0 {
		return 0, 0, nil, fmt.Errorf("%w: empty replication payload", ErrBadStream)
	}
	switch b[0] {
	case ReplRecord:
		if len(b) < 2 {
			return 0, 0, nil, fmt.Errorf("%w: record frame missing type byte", ErrBadStream)
		}
		return ReplRecord, b[1], b[2:], nil
	case ReplSnapshot:
		if len(b) < 2 {
			return 0, 0, nil, fmt.Errorf("%w: empty snapshot frame", ErrBadStream)
		}
		return ReplSnapshot, 0, b[1:], nil
	case ReplHeartbeat:
		if len(b) != 1 {
			return 0, 0, nil, fmt.Errorf("%w: heartbeat frame carries %d extra bytes", ErrBadStream, len(b)-1)
		}
		return ReplHeartbeat, 0, nil, nil
	}
	return 0, 0, nil, fmt.Errorf("%w: unknown replication frame kind %d", ErrBadStream, b[0])
}
