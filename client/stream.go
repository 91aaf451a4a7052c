package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/tupleio"
)

// Streaming ingest client: one persistent connection to corrd's
// -stream-addr listener, frames pipelined ahead of the server's acks.
// Send never waits for a round trip — it blocks only when the window
// (unacked frames in flight) is full — so a single goroutine calling
// Send in a loop keeps the server's commit pipeline fed at wire speed,
// where the HTTP path pays a full request/response per batch.
//
// Acks arrive in frame order (the protocol guarantees it), and by
// default the Stream consumes them internally: it advances the acked
// window, counts acked tuples, and latches the first failure so Close
// can report it. A caller that needs per-frame outcomes — e.g. the load
// generator's latency measurement — opts in with WithAckBuffer, which
// exposes the Acks channel and transfers the draining duty: an
// unconsumed channel eventually fills the window and stalls Send.
//
// Delivery is at-least-once across reconnects, exactly like HTTP
// retries: a client that dies before reading a frame's ack cannot know
// whether that frame committed, and re-sending it on a new connection
// duplicates the batch.

// ErrStreamClosed is returned by Send after Close (or after the stream
// failed and latched its error).
var ErrStreamClosed = errors.New("client: stream closed")

// DefaultStreamWindow is the default cap on unacked frames in flight.
const DefaultStreamWindow = 128

// Ack is one per-frame outcome from the server: the frame's sequence
// number, the WAL LSN of the commit group it rode in,
// and a tupleio.Ack* status byte.
type Ack struct {
	Seq    uint64
	LSN    uint64
	Status uint8
	// Tuples is the frame's batch size, tracked client-side so ack
	// consumers can count throughput without keeping their own map.
	Tuples int
}

// Err converts a non-OK ack into an error (nil for AckOK).
func (a Ack) Err() error {
	switch a.Status {
	case tupleio.AckOK:
		return nil
	case tupleio.AckInvalid:
		return fmt.Errorf("client: frame %d rejected as invalid", a.Seq)
	case tupleio.AckEngine:
		return fmt.Errorf("client: frame %d failed in the engine", a.Seq)
	case tupleio.AckWAL:
		return fmt.Errorf("client: frame %d applied but not durable (WAL append failed)", a.Seq)
	case tupleio.AckShutdown:
		return fmt.Errorf("client: frame %d refused, server shutting down", a.Seq)
	case tupleio.AckTenant:
		return fmt.Errorf("client: frame %d refused by a tenant governance cap", a.Seq)
	case tupleio.AckReadOnly:
		return fmt.Errorf("client: frame %d refused, server is a read-only replica", a.Seq)
	case tupleio.AckDegraded:
		// The connection survives a degraded nack: match with IsDegraded,
		// back off, and resend the batch on the same stream.
		return fmt.Errorf("client: frame %d refused: %w", a.Seq, ErrDegraded)
	case tupleio.AckBusy:
		// Same for overload sheds: IsBusy, back off, resend.
		return fmt.Errorf("client: frame %d refused: %w", a.Seq, ErrBusy)
	default:
		return fmt.Errorf("client: frame %d: unknown ack status %d", a.Seq, a.Status)
	}
}

// StreamOption configures DialStream.
type StreamOption func(*streamConfig)

type streamConfig struct {
	window      int
	ackBuf      int
	dialTimeout time.Duration
	tenant      string
}

// WithStreamWindow caps how many frames may be in flight (sent,
// unacked) before Send blocks; n < 1 is ignored.
func WithStreamWindow(n int) StreamOption {
	return func(c *streamConfig) {
		if n >= 1 {
			c.window = n
		}
	}
}

// WithAckBuffer exposes per-frame acks on the Acks channel (buffered to
// n, minimum 1). The caller MUST drain the channel: once it and the
// window fill, Send blocks. Without this option acks are consumed
// internally and surfaced only as Close's error.
func WithAckBuffer(n int) StreamOption {
	return func(c *streamConfig) {
		if n < 1 {
			n = 1
		}
		c.ackBuf = n
	}
}

// WithStreamTenant scopes every frame on the stream to the named
// tenant: the handshake negotiates the keyed frame format and each
// frame carries the tenant prefix. An empty name keeps the
// counted format (the default tenant). Invalid names are rejected at
// dial time, before any connection is opened.
func WithStreamTenant(name string) StreamOption {
	return func(c *streamConfig) {
		c.tenant = name
	}
}

// WithDialTimeout bounds the TCP connect plus handshake; d <= 0 is
// ignored. The default is 10s.
func WithDialTimeout(d time.Duration) StreamOption {
	return func(c *streamConfig) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// Stream is one streaming-ingest connection. It is safe for one
// goroutine to Send while another consumes Acks; Send itself must not
// be called concurrently.
type Stream struct {
	conn     net.Conn
	bw       *bufio.Writer
	maxFrame uint32
	window   int
	tenant   string // non-empty: keyed frames, prefixed with this name

	acks chan Ack // nil unless WithAckBuffer

	mu       sync.Mutex
	cond     *sync.Cond
	seq      uint64        // last seq sent
	ackedSeq uint64        // last seq acked
	sizes    []int         // tuple counts of in-flight frames, FIFO
	err      error         // latched terminal error
	closed   bool          // Send refused (Close called or stream failed)
	done     chan struct{} // lazily made; closed on termination
	acked    uint64        // tuples acked OK (internal-consumption mode)
	ackErr   error         // first non-OK ack (internal-consumption mode)
	readerWg sync.WaitGroup

	hdr []byte // frame encode scratch (header + payload)
}

// DialStream opens a streaming-ingest connection to addr (host:port of
// corrd's -stream-addr listener) and performs the handshake. The
// context bounds the dial and handshake and, after that, cancels the
// stream: when ctx ends, in-flight Sends unblock with ctx's error and
// the connection closes.
func DialStream(ctx context.Context, addr string, opts ...StreamOption) (*Stream, error) {
	cfg := streamConfig{window: DefaultStreamWindow, dialTimeout: 10 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	var format uint8 = tupleio.StreamFormatCounted
	if cfg.tenant != "" {
		if err := tupleio.ValidateTenant([]byte(cfg.tenant)); err != nil {
			return nil, fmt.Errorf("client: stream tenant: %w", err)
		}
		format = tupleio.StreamFormatKeyed
	}
	dctx := ctx
	if cfg.dialTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, cfg.dialTimeout)
		defer cancel()
	}
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := dctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	hello := tupleio.AppendHello(make([]byte, 0, tupleio.HelloSize), format)
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: stream hello: %w", err)
	}
	var reply [tupleio.HelloReplySize]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: stream hello reply: %w", err)
	}
	status, maxFrame, err := tupleio.ParseHelloReply(reply[:])
	if err != nil {
		conn.Close()
		return nil, err
	}
	if status != tupleio.HelloOK {
		conn.Close()
		return nil, fmt.Errorf("client: server refused stream (status %d)", status)
	}
	conn.SetDeadline(time.Time{})

	s := &Stream{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 64<<10),
		maxFrame: maxFrame,
		window:   cfg.window,
		sizes:    make([]int, 0, cfg.window),
		hdr:      make([]byte, 0, tupleio.FrameHeaderSize),
	}
	s.tenant = cfg.tenant
	s.cond = sync.NewCond(&s.mu)
	if cfg.ackBuf > 0 {
		s.acks = make(chan Ack, cfg.ackBuf)
	}
	s.readerWg.Add(1)
	go s.readAcks()
	if ctx.Done() != nil {
		// The watcher turns context cancellation into a stream failure:
		// closing the conn unblocks the ack reader, which latches the
		// error and wakes every blocked Send.
		s.readerWg.Add(1)
		go func() {
			defer s.readerWg.Done()
			select {
			case <-ctx.Done():
				s.fail(ctx.Err())
			case <-s.doneCh():
			}
		}()
	}
	return s, nil
}

// done is closed (lazily, by doneCh's first caller racing fail/Close)
// when the stream terminates, so the context watcher exits.
func (s *Stream) doneCh() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done == nil {
		s.done = make(chan struct{})
		if s.closed {
			close(s.done)
		}
	}
	return s.done
}

// Acks returns the per-frame outcome channel, or nil unless the stream
// was dialed with WithAckBuffer. The channel closes when the server's
// ack stream ends (after Close, or on failure).
func (s *Stream) Acks() <-chan Ack { return s.acks }

// MaxFrame reports the server's advertised per-frame payload cap.
func (s *Stream) MaxFrame() uint32 { return s.maxFrame }

// Send frames one batch and hands it to the transport, blocking only
// while the in-flight window is full. A nil return means the frame was
// written toward the server, not that it committed — commit outcomes
// arrive as acks. Batches too large for one frame are split.
func (s *Stream) Send(batch []correlated.Tuple) error {
	for len(batch) > 0 {
		n := len(batch)
		// A tuple encodes to at most 27 bytes (3 uvarint64s) and the
		// counted batch carries a <=10-byte count prefix; keep every
		// frame under the server's cap with that worst case. A keyed
		// frame also spends its tenant prefix (uvarint length, <=2
		// bytes for the 128-byte name cap, plus the name itself).
		overhead := 10
		if s.tenant != "" {
			overhead += 2 + len(s.tenant)
		}
		maxT := (int(s.maxFrame) - overhead) / 27
		if maxT < 1 {
			maxT = 1
		}
		if n > maxT {
			n = maxT
		}
		if err := s.sendFrame(batch[:n]); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

func (s *Stream) sendFrame(batch []correlated.Tuple) error {
	s.mu.Lock()
	for !s.closed && len(s.sizes) >= s.window {
		s.cond.Wait()
	}
	if s.closed {
		err := s.err
		s.mu.Unlock()
		if err != nil {
			return err
		}
		return ErrStreamClosed
	}
	s.seq++
	seq := s.seq
	s.sizes = append(s.sizes, len(batch))
	s.mu.Unlock()

	// Encode header + payload into the reused scratch and write it as
	// one buffered chunk; flush so the server sees the frame without
	// waiting for the next Send to push it out. The length is patched
	// in after the payload is encoded (its size is not known before).
	buf := tupleio.AppendFrameHeader(s.hdr[:0], seq, 0)
	if s.tenant != "" {
		buf = tupleio.AppendKeyedBatch(buf, s.tenant, batch)
	} else {
		buf = tupleio.AppendCountedBatch(buf, batch)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-tupleio.FrameHeaderSize))
	s.hdr = buf
	if _, err := s.bw.Write(buf); err != nil {
		s.fail(err)
		return err
	}
	if err := s.bw.Flush(); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// readAcks is the single reader of the server's ack stream: it advances
// the window (waking blocked Sends), forwards acks to the channel when
// one was requested, and otherwise folds them into the internal tally.
func (s *Stream) readAcks() {
	defer s.readerWg.Done()
	br := bufio.NewReaderSize(s.conn, 16<<10)
	var buf [tupleio.AckSize]byte
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			// io.EOF after Close's half-close with an empty window is
			// the clean end; anything else latches as the stream error.
			s.mu.Lock()
			clean := err == io.EOF && s.closed && len(s.sizes) == 0
			s.mu.Unlock()
			if !clean {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				s.fail(fmt.Errorf("client: ack stream: %w", err))
			} else {
				s.fail(nil)
			}
			if s.acks != nil {
				close(s.acks)
			}
			return
		}
		seq, lsn, status, _ := tupleio.ParseAck(buf[:]) // len is fixed; err impossible
		s.mu.Lock()
		var tuples int
		if seq == s.ackedSeq+1 && len(s.sizes) > 0 {
			tuples = s.sizes[0]
			s.sizes = s.sizes[:copy(s.sizes, s.sizes[1:])]
			s.ackedSeq = seq
			s.cond.Broadcast()
		}
		if s.acks == nil {
			if status == tupleio.AckOK {
				s.acked += uint64(tuples)
			} else if s.ackErr == nil {
				s.ackErr = Ack{Seq: seq, Status: status}.Err()
			}
		}
		s.mu.Unlock()
		if s.acks != nil {
			s.acks <- Ack{Seq: seq, LSN: lsn, Status: status, Tuples: tuples}
		}
	}
}

// fail latches err (first one wins), refuses further Sends, wakes
// blocked ones, and closes the connection.
func (s *Stream) fail(err error) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.done != nil {
			close(s.done)
		}
	}
	if s.err == nil && err != nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
}

// Acked reports tuples acknowledged OK so far (always 0 when acks are
// delivered on the channel instead — count them there).
func (s *Stream) Acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Close ends the stream gracefully: stop Sends, wait for every
// in-flight frame's ack, half-close the write side so the server sees
// a clean end, and report the first error the stream encountered — a
// transport failure, or (in internal-consumption mode) the first
// non-OK ack.
func (s *Stream) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	if s.done != nil && !wasClosed {
		close(s.done)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if !wasClosed {
		// Half-close: no more frames will come, but the read side stays
		// open for the remaining acks. Listeners without CloseWrite
		// (rare for TCP) just get the full Close below.
		type closeWriter interface{ CloseWrite() error }
		if cw, ok := s.conn.(closeWriter); ok {
			cw.CloseWrite()
		} else {
			s.conn.Close()
		}
	}
	s.readerWg.Wait()
	s.conn.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.ackErr
}
