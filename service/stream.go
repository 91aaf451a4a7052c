package service

import (
	"bufio"
	"errors"
	"io"
	"net"
	"time"

	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// Streaming ingest: the wire-speed alternative to POST /v1/ingest. A
// client opens one TCP connection to the -stream-addr listener, sends a
// fixed-size hello, and then pumps length-framed counted tuple batches
// back-to-back; the server decodes each frame straight into the same
// pooled decodeState buffers the HTTP handlers recycle, enqueues the
// batch on the commit pipeline (pipeline.go — the identical group
// commit, WAL record, and fsync the HTTP path rides), and returns
// fixed-size acks (client seq, group LSN, status) asynchronously on the
// same connection. The client pipelines frames ahead of the acks, so
// the per-batch cost collapses to frame decode + its share of the group
// commit: no HTTP parse, no response encode, no request round trip.
//
// Per connection there are two goroutines. The reader owns the receive
// side: hello, then a frame loop that reads into a pooled decodeState,
// decodes, enqueues, and hands the state to the acker through a bounded
// in-flight channel (the bound is the connection's pipelining window —
// when the committer falls behind, the reader blocks and TCP pushes the
// backpressure to the client). The acker owns the send side: it waits
// for each job's commit in FIFO order — the commit pipeline preserves
// enqueue order, so a frame's ack can never overtake an earlier
// frame's — writes the ack, and recycles the decodeState into the
// shared pool. Steady state allocates nothing per frame: the header
// scratch lives in the FrameReader, payload and tuple buffers round-
// trip through the pool, and acks are written from a fixed buffer.
//
// Durability semantics are exactly the HTTP path's: an AckOK frame is
// applied and, with -wal-fsync=always, durable behind the group fsync
// its LSN names — streamed batches ride the same group-commit WAL
// records, so kill -9 recovery stays byte-exact with stream and HTTP
// ingest interleaved. Delivery is at-least-once across reconnects: a
// client that dies before reading an ack cannot know whether the frame
// committed, and re-sending it duplicates the batch (same window the
// HTTP client's retry documentation describes).

// streamInflight bounds how many frames one connection may have in the
// commit pipeline ahead of their acks. It is the server-side pipelining
// window: large enough to keep the committer fed across the fsync gap,
// small enough that one connection cannot queue unbounded memory.
const streamInflight = 256

// streamHelloTimeout bounds how long an accepted connection may dawdle
// before its hello: a connect-and-hold client ties up two goroutines
// otherwise.
const streamHelloTimeout = 10 * time.Second

// ServeStream accepts streaming-ingest connections on ln until the
// listener closes or the server shuts down. Run it on its own goroutine
// per listener; Close closes registered listeners and drains live
// connections (queued frames are committed and acked, not dropped).
func (s *Server) ServeStream(ln net.Listener) error {
	if !s.registerStreamListener(ln) {
		ln.Close()
		return errShuttingDown
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closing.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.registerStreamConn(c) {
			c.Close()
			return nil
		}
		go s.serveStreamConn(c)
	}
}

// registerStreamListener records ln for Close; it refuses when the
// server is already draining.
func (s *Server) registerStreamListener(ln net.Listener) bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.closing.Load() {
		return false
	}
	s.streamLns = append(s.streamLns, ln)
	return true
}

// registerStreamConn tracks a live connection and joins the server's
// WaitGroup on its behalf; the closing check under streamMu pairs with
// closeStreams so a conn accepted during shutdown is never orphaned
// after wg.Wait has been passed.
func (s *Server) registerStreamConn(c net.Conn) bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.closing.Load() {
		return false
	}
	if s.streamConns == nil {
		s.streamConns = make(map[net.Conn]struct{})
	}
	s.streamConns[c] = struct{}{}
	s.wg.Add(1)
	s.metrics.streamConns.Add(1)
	s.metrics.streamConnsTotal.Inc()
	return true
}

func (s *Server) unregisterStreamConn(c net.Conn) {
	s.streamMu.Lock()
	delete(s.streamConns, c)
	s.streamMu.Unlock()
	s.metrics.streamConns.Add(-1)
}

// closeStreams stops the streaming transport for shutdown: close the
// listeners (no new connections) and expire every live connection's
// read so its reader goroutine unblocks and begins the drain — acks for
// frames already in the pipeline still go out before the conn closes.
func (s *Server) closeStreams() {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for _, ln := range s.streamLns {
		ln.Close()
	}
	for c := range s.streamConns {
		c.SetReadDeadline(time.Now())
	}
}

// streamMaxFrame is the per-frame payload cap the server enforces (and
// advertises in its hello reply) — the same body cap as the HTTP path,
// bounded to what a uint32 frame length can carry.
func (s *Server) streamMaxFrame() uint32 {
	maxFrame := s.cfg.MaxBodyBytes
	if maxFrame > 1<<30 {
		maxFrame = 1 << 30
	}
	return uint32(maxFrame)
}

// serveStreamConn runs one connection's reader side and spawns its
// acker. It exits when the client closes its write half (the graceful
// end), the connection breaks, the server drains, or the client
// desynchronizes — and in every case the acker first finishes writing
// the acks for frames already handed to the pipeline.
func (s *Server) serveStreamConn(c net.Conn) {
	defer s.wg.Done()
	defer s.unregisterStreamConn(c)
	defer c.Close()

	c.SetReadDeadline(time.Now().Add(streamHelloTimeout))
	var hello [tupleio.HelloSize]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		s.metrics.streamFrameErrors.Inc()
		return
	}
	version, format, err := tupleio.ParseHello(hello[:])
	status := tupleio.HelloOK
	replWAL := (*wal.WAL)(nil)
	switch {
	case err != nil:
		s.metrics.streamFrameErrors.Inc()
		return // not even our protocol; reply with nothing
	case version != tupleio.StreamVersion:
		status = tupleio.HelloBadVersion
	case format == tupleio.StreamFormatReplica:
		// A replication follower: it needs a log to follow. A replica
		// being asked to replicate has none (until promoted), and
		// neither does a WAL-less primary.
		if replWAL = s.walRef(); replWAL == nil {
			status = tupleio.HelloNoWAL
		}
	case format != tupleio.StreamFormatCounted && format != tupleio.StreamFormatKeyed:
		status = tupleio.HelloBadFormat
	}
	keyed := format == tupleio.StreamFormatKeyed
	maxFrame := s.streamMaxFrame()
	if format == tupleio.StreamFormatReplica {
		// Snapshot re-seed frames carry a whole state image, so the
		// replication cap is the WAL's record bound, not the body cap.
		maxFrame = replicaMaxFrame
	}
	reply := tupleio.AppendHelloReply(nil, status, maxFrame)
	if _, err := c.Write(reply); err != nil || status != tupleio.HelloOK {
		if status != tupleio.HelloOK {
			s.metrics.streamFrameErrors.Inc()
		}
		return
	}
	if format == tupleio.StreamFormatReplica {
		s.serveReplicaConn(c, replWAL)
		return
	}
	c.SetReadDeadline(time.Time{})
	if s.closing.Load() {
		// Close expired this conn's reads while the hello was in flight and
		// the line above wiped that out; nothing else ends the read loop.
		c.SetReadDeadline(time.Now())
	}

	// One request ID per connection, minted at the handshake: every
	// frame's access-log line carries it (plus the frame seq), so an
	// operator can stitch a connection's whole life back together.
	connID := newRequestID()
	s.logf("stream: conn %s open from %s (keyed=%t)", connID, c.RemoteAddr(), keyed)

	// The in-flight queue is the reader→acker handoff: decodeStates
	// whose jobs are queued (or already failed) travel through it in
	// frame order. ackerDone lets the reader wait for the final ack
	// flush before closing the conn (via the deferred Close above).
	inflight := make(chan *decodeState, streamInflight)
	ackerDone := make(chan struct{})
	go s.streamAcker(c, connID, inflight, ackerDone)

	fr := tupleio.NewFrameReader(bufio.NewReaderSize(c, 64<<10), s.streamMaxFrame())
	var expect uint64 // last seq accepted; frames must arrive as expect+1
	for {
		d := s.dec.Get().(*decodeState)
		seq, payload, err := fr.Next(d.body[:cap(d.body)])
		d.body = payload
		if err != nil {
			// io.EOF between frames is the client's half-close — the
			// graceful end. Everything else (truncation, hostile
			// length, read timeout from closeStreams, broken conn)
			// just stops the read side; the acker still drains.
			if !errors.Is(err, io.EOF) {
				s.metrics.streamFrameErrors.Inc()
			}
			s.putDecodeState(d)
			break
		}
		if seq != expect+1 {
			// A gap means the sender and our acks have desynchronized;
			// nothing later on this conn can be trusted or acked
			// truthfully, so drop the conn and let the client redial.
			s.metrics.streamFrameErrors.Inc()
			s.putDecodeState(d)
			break
		}
		expect = seq
		d.streamSeq = seq
		// A frame refused before it reaches the pipeline is nacked with
		// its typed status and the connection kept: a replica promoted
		// mid-stream, a server that recovers, a queue that drains all
		// resume on the same conn; the other frames are independent batches.
		if kind, err := s.writeGate(); kind != ingestOK {
			nackFrame(inflight, d, kind, err)
			continue
		}
		if keyed {
			// Keyed frame: tenant prefix, then the counted batch. The
			// decoded key aliases d.body, which stays untouched until the
			// ack; the commit resolves it, and a governance cap's refusal
			// is this frame's ack while other tenants' keep committing.
			d.job.key, d.tuples, err = tupleio.DecodeKeyed(d.tuples, d.body)
		} else {
			d.tuples, err = tupleio.DecodeCounted(d.tuples, d.body)
		}
		if err != nil {
			// Framing is intact — only this payload is bad.
			s.metrics.streamFrameErrors.Inc()
			nackFrame(inflight, d, ingestErrValidate, err)
			continue
		}
		d.job.op, d.job.tuples = opIngest, d.tuples
		if s.enqueue(&d.job) {
			inflight <- d
			continue
		}
		// Invalid (this batch only), shed (the queue bound is transient
		// backpressure, not a conn problem) or shutting down (the read
		// side is over).
		draining := d.job.kind == ingestErrShutdown
		nackFrame(inflight, d, d.job.kind, d.job.err)
		if draining {
			break
		}
	}
	close(inflight)
	<-ackerDone
}

// nackFrame answers a frame that never enters the commit pipeline: the
// job is completed by hand — outcome, and the stage stamps the acker and
// the access log read — and queued for the acker in frame order.
func nackFrame(inflight chan<- *decodeState, d *decodeState, kind ingestErrKind, err error) {
	j := &d.job
	j.err, j.kind, j.lsn = err, kind, 0
	j.enqueuedAt = time.Now()
	j.wakeAt = j.enqueuedAt
	j.done <- struct{}{}
	inflight <- d
}

// streamAcker writes one ack per in-flight frame, in order, waiting for
// each job's commit first, then recycles the decodeState. It flushes
// whenever the queue momentarily empties (latency) instead of per ack
// (throughput), and once the reader closes the queue it flushes the
// tail and exits.
func (s *Server) streamAcker(c net.Conn, connID string, inflight <-chan *decodeState, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(c, 16<<10)
	var buf [tupleio.AckSize]byte
	for d := range inflight {
		<-d.job.done
		s.metrics.stages[stageAck].Observe(time.Since(d.job.wakeAt).Seconds())
		o := &outcomes[d.job.kind]
		status := o.ack
		if d.job.kind == ingestOK {
			s.metrics.streamFrames.Inc()
			s.metrics.streamTuples.Add(uint64(len(d.job.tuples)))
			d.job.tn.tuplesIngested.Add(uint64(len(d.job.tuples)))
		} else if o.count != nil {
			o.count(s.metrics).Inc()
		}
		if s.access != nil {
			var tname string
			if d.job.tn != nil { // nil: the commit did not apply it
				tname = d.job.tn.name
			}
			s.access.record(accessRecord{
				ts:        d.job.enqueuedAt,
				transport: "stream",
				method:    "FRAME",
				path:      "/stream",
				tenant:    tname,
				requestID: connID,
				status:    int(status),
				bytesIn:   int64(len(d.body)),
				dur:       time.Since(d.job.enqueuedAt),
				seq:       d.streamSeq,
			})
		}
		ack := tupleio.AppendAck(buf[:0], d.streamSeq, d.job.lsn, status)
		_, werr := bw.Write(ack)
		s.putDecodeState(d)
		if werr != nil {
			// The conn is gone; keep draining so every queued job is
			// waited on and recycled, but stop writing.
			for d := range inflight {
				<-d.job.done
				s.putDecodeState(d)
			}
			return
		}
		if len(inflight) == 0 {
			if err := bw.Flush(); err != nil {
				for d := range inflight {
					<-d.job.done
					s.putDecodeState(d)
				}
				return
			}
		}
	}
	bw.Flush()
}
