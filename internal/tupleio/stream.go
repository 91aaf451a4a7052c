package tupleio

// Stream wire format: the persistent length-framed ingest transport the
// corrd service serves on -stream-addr. One connection carries, in
// order: a fixed-size client hello, a fixed-size server reply, and then
// client frames pumped back-to-back while the server returns fixed-size
// acks asynchronously on the same connection — the client pipelines
// many frames ahead of the acks instead of paying a round trip per
// batch the way the HTTP path does.
//
//	hello   "CST1" version format reserved[2]            8 bytes
//	reply   "cst1" status  version maxFrame:uint32 LE   10 bytes
//	frame   length:uint32 LE  seq:uint64 LE  payload    12 + length bytes
//	ack     seq:uint64 LE  lsn:uint64 LE  status        17 bytes
//
// A frame's payload is one counted tuple batch (AppendCountedBatch):
// the same bytes the WAL logs, so the server's stream decode and its
// replay path share one grammar. Frame sequence numbers start at 1 and
// increment by 1 per connection; the server closes the connection on a
// gap (the sender is desynchronized, so nothing later can be trusted).
// Every decode-side allocation is bounded before it happens: the reply
// advertises the server's frame cap, FrameReader rejects a header
// claiming more than its cap before reading (or allocating) a single
// payload byte, and the payload's own count header is then bounded by
// DecodeCounted exactly as on the HTTP path — the adversarial-header
// discipline that caught the hostile-allocation DoS bugs in the merge
// image decoders.
//
// Acks carry (client seq, group LSN, status): the LSN of the WAL group
// record the frame's batch rode in (0 without a WAL), and a status from
// the Ack* constants. Ack order equals frame order, so a client needs
// no reorder buffer — the ack stream is the frame stream's echo.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Stream handshake constants. The magic pins the protocol and its
// byte order; the version gates incompatible grammar changes.
const (
	// StreamVersion is the protocol version this codec speaks.
	StreamVersion = 1
	// StreamFormatCounted says frame payloads are counted tuple
	// batches (AppendCountedBatch), all addressed to the server's
	// default tenant.
	StreamFormatCounted = 1
	// StreamFormatKeyed says frame payloads are keyed batches
	// (AppendKeyedBatch): a tenant prefix then the counted batch, so
	// one connection can feed any number of the daemon's tenants.
	StreamFormatKeyed = 2

	// HelloSize, HelloReplySize, FrameHeaderSize, and AckSize are the
	// fixed wire sizes; readers use them to size scratch buffers once
	// per connection.
	HelloSize       = 8
	HelloReplySize  = 10
	FrameHeaderSize = 12
	AckSize         = 17
)

// streamMagic opens the client hello; replyMagic opens the server
// reply (distinct, so a misdirected client cannot mistake its own
// hello echoed back for a server).
var (
	streamMagic = [4]byte{'C', 'S', 'T', '1'}
	replyMagic  = [4]byte{'c', 's', 't', '1'}
)

// Hello reply status codes.
const (
	// HelloOK accepts the stream; frames may follow.
	HelloOK uint8 = 0
	// HelloBadVersion rejects an unsupported protocol version.
	HelloBadVersion uint8 = 1
	// HelloBadFormat rejects an unsupported payload format.
	HelloBadFormat uint8 = 2
)

// Ack status codes: the per-frame outcome, mirroring the HTTP ingest
// handler's error classes.
const (
	// AckOK: the frame's batch is applied and (with a WAL) durable
	// behind the group fsync its LSN names.
	AckOK uint8 = 0
	// AckInvalid: the payload was rejected — malformed counted batch,
	// or the engine's synchronous validation (y bound, weight) refused
	// it. The sender's error; the connection stays usable.
	AckInvalid uint8 = 1
	// AckEngine: the commit group's engine flush failed; the frame is
	// not acknowledged as applied.
	AckEngine uint8 = 2
	// AckWAL: the engine applied the batch but the WAL append failed —
	// the write is not durable.
	AckWAL uint8 = 3
	// AckShutdown: the server is draining; the frame was not applied.
	// Re-send on a new connection.
	AckShutdown uint8 = 4
	// AckTenant: the frame named a tenant the server refused to create
	// (tenant-count or memory cap). The connection stays usable; frames
	// for existing tenants keep committing.
	AckTenant uint8 = 5

	// AckReadOnly: the server is a standby, which takes no client writes
	// until it is promoted (HTTP mirrors this with 503). The connection
	// stays usable — the sender may be probing.
	AckReadOnly uint8 = 6

	// AckDegraded: the server is in degraded (read-only) mode — its
	// durability path is broken and it refuses writes until recovery.
	// The connection stays usable: reads keep working elsewhere, and the
	// sender may re-send the frame after the server recovers.
	AckDegraded uint8 = 7
	// AckBusy: the commit-pipeline queue is full and the frame was shed
	// before being applied. Transient; the sender should back off and
	// re-send on the same connection.
	AckBusy uint8 = 8
)

// AppendHello appends the client hello for the given payload format.
func AppendHello(buf []byte, format uint8) []byte {
	buf = append(buf, streamMagic[:]...)
	return append(buf, StreamVersion, format, 0, 0)
}

// ParseHello validates a client hello and returns its version and
// format bytes. The caller decides whether it supports them; only the
// magic (and size) are grounds for rejection here.
func ParseHello(b []byte) (version, format uint8, err error) {
	if len(b) != HelloSize {
		return 0, 0, fmt.Errorf("%w: hello is %d bytes, want %d", ErrBadStream, len(b), HelloSize)
	}
	if [4]byte(b[:4]) != streamMagic {
		return 0, 0, fmt.Errorf("%w: bad hello magic %q", ErrBadStream, b[:4])
	}
	return b[4], b[5], nil
}

// AppendHelloReply appends the server's hello reply: a status from the
// Hello* constants and, when accepting, the largest frame payload the
// server will read.
func AppendHelloReply(buf []byte, status uint8, maxFrame uint32) []byte {
	buf = append(buf, replyMagic[:]...)
	buf = append(buf, status, StreamVersion)
	return binary.LittleEndian.AppendUint32(buf, maxFrame)
}

// ParseHelloReply validates a server reply and returns its status and
// advertised frame cap.
func ParseHelloReply(b []byte) (status uint8, maxFrame uint32, err error) {
	if len(b) != HelloReplySize {
		return 0, 0, fmt.Errorf("%w: hello reply is %d bytes, want %d", ErrBadStream, len(b), HelloReplySize)
	}
	if [4]byte(b[:4]) != replyMagic {
		return 0, 0, fmt.Errorf("%w: bad hello reply magic %q", ErrBadStream, b[:4])
	}
	if b[5] != StreamVersion {
		return 0, 0, fmt.Errorf("%w: server speaks stream version %d, client %d", ErrBadStream, b[5], StreamVersion)
	}
	return b[4], binary.LittleEndian.Uint32(b[6:10]), nil
}

// AppendFrameHeader appends one frame header; the caller appends (or
// writes) the length payload bytes right after it.
func AppendFrameHeader(buf []byte, seq uint64, length uint32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, length)
	return binary.LittleEndian.AppendUint64(buf, seq)
}

// AppendAck appends one fixed-size ack record.
func AppendAck(buf []byte, seq, lsn uint64, status uint8) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	return append(buf, status)
}

// ParseAck decodes one ack record.
func ParseAck(b []byte) (seq, lsn uint64, status uint8, err error) {
	if len(b) != AckSize {
		return 0, 0, 0, fmt.Errorf("%w: ack is %d bytes, want %d", ErrBadStream, len(b), AckSize)
	}
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]), b[16], nil
}

// FrameReader reads stream frames from r with a hard payload cap. One
// FrameReader per connection: the header scratch lives in the struct,
// and Next reuses the caller's payload buffer, so the steady-state
// per-frame read path allocates nothing.
type FrameReader struct {
	r        io.Reader
	maxFrame uint32
	hdr      [FrameHeaderSize]byte
}

// NewFrameReader wraps r. maxFrame is the largest payload Next will
// accept; a header claiming more is rejected before any payload byte
// is read or allocated.
func NewFrameReader(r io.Reader, maxFrame uint32) *FrameReader {
	return &FrameReader{r: r, maxFrame: maxFrame}
}

// Next reads one frame, decoding its payload into payload's storage
// (grown only when the capacity is short — bounded by maxFrame). A
// clean end of stream between frames is io.EOF; a stream that dies
// mid-frame is io.ErrUnexpectedEOF. The returned slice aliases the
// (possibly grown) buffer; pass it back in to keep reusing it.
func (fr *FrameReader) Next(payload []byte) (seq uint64, out []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, payload, fmt.Errorf("%w: truncated frame header", ErrBadStream)
		}
		return 0, payload, err // io.EOF: clean boundary
	}
	length := binary.LittleEndian.Uint32(fr.hdr[0:4])
	seq = binary.LittleEndian.Uint64(fr.hdr[4:12])
	if length == 0 {
		return 0, payload, fmt.Errorf("%w: zero-length frame", ErrBadStream)
	}
	if length > fr.maxFrame {
		// The cap check precedes the allocation: a hostile header
		// claiming 4 GiB costs nothing.
		return 0, payload, fmt.Errorf("%w: frame claims %d bytes, cap is %d", ErrBadStream, length, fr.maxFrame)
	}
	if uint32(cap(payload)) < length {
		payload = make([]byte, 0, length)
	}
	payload = payload[:length]
	if n, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, payload[:0], fmt.Errorf("%w: frame %d truncated at %d of %d payload bytes", ErrBadStream, seq, n, length)
		}
		return 0, payload[:0], err
	}
	return seq, payload, nil
}
