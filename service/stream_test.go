package service

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http/httptest"
	"sync"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/tupleio"
)

// startStream attaches a streaming-ingest listener to svc on a free
// loopback port and returns its address.
func startStream(t *testing.T, svc *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.ServeStream(ln)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestStreamIngestRoundTrip: tuples ingested over the streaming
// transport answer queries identically to an offline summary built from
// the same stream — the same exactness contract as the HTTP path — and
// the stream counters see the traffic.
func TestStreamIngestRoundTrip(t *testing.T) {
	o := testOptions()
	svc, ts, cl := newTestServer(t, Config{Options: o})
	addr := startStream(t, svc)
	ctx := context.Background()

	st, err := client.DialStream(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, scrape(t, ts.URL), "corrd_stream_conns"); v != 1 {
		t.Fatalf("corrd_stream_conns %v with one connection open, want 1", v)
	}
	stream := testStream(10_000, 42)
	const chunk = 1000
	for off := 0; off < len(stream); off += chunk {
		if err := st.Send(stream[off : off+chunk]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Acked(); got != uint64(len(stream)) {
		t.Fatalf("acked %d tuples, want %d", got, len(stream))
	}

	offline, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := offline.AddBatch(append([]correlated.Tuple(nil), stream...)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint64{0, 50, 150, distinctY, 1 << 15} {
		want, err1 := offline.QueryLE(c)
		got, err2 := cl.QueryLE(ctx, c)
		if err1 != nil || err2 != nil {
			t.Fatalf("c=%d: %v %v", c, err1, err2)
		}
		if got != want {
			t.Fatalf("LE c=%d: service %v offline %v", c, got, want)
		}
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != uint64(len(stream)) {
		t.Fatalf("count %d, want %d", stats.Count, len(stream))
	}
	if stats.StreamConnsTotal != 1 || stats.StreamFrames != uint64(len(stream)/chunk) ||
		stats.StreamTuples != uint64(len(stream)) {
		t.Fatalf("stream stats: %+v", stats)
	}
	body := scrape(t, ts.URL)
	if metricValue(t, body, "corrd_stream_conns_total") != 1 || metricValue(t, body, "corrd_stream_frames_total") != float64(len(stream)/chunk) {
		t.Fatalf("stream series after one connection of %d frames:\n%s", len(stream)/chunk, body)
	}
}

// TestStreamAcksCarryLSN: with a WAL, every OK ack names the LSN of the
// group record its frame rode in — nonzero and nondecreasing, since the
// pipeline is FIFO.
func TestStreamAcksCarryLSN(t *testing.T) {
	svc, _, _ := newTestServer(t, walConfig(t))
	addr := startStream(t, svc)
	ctx := context.Background()

	st, err := client.DialStream(ctx, addr, client.WithAckBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	const frames = 10
	acks := make(chan client.Ack, frames)
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for a := range st.Acks() {
			acks <- a
		}
	}()
	for j := 0; j < frames; j++ {
		if err := st.Send(testStream(100, uint64(700+j))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	drainWG.Wait()
	close(acks)
	var lastSeq, lastLSN uint64
	n := 0
	for a := range acks {
		if err := a.Err(); err != nil {
			t.Fatal(err)
		}
		if a.Seq != lastSeq+1 {
			t.Fatalf("ack seq %d after %d", a.Seq, lastSeq)
		}
		if a.LSN == 0 || a.LSN < lastLSN {
			t.Fatalf("ack %d: LSN %d after %d", a.Seq, a.LSN, lastLSN)
		}
		if a.Tuples != 100 {
			t.Fatalf("ack %d: %d tuples", a.Seq, a.Tuples)
		}
		lastSeq, lastLSN = a.Seq, a.LSN
		n++
	}
	if n != frames {
		t.Fatalf("%d acks, want %d", n, frames)
	}
}

// TestStreamBadPayloadNacked: a frame whose payload fails the counted
// decode is nacked (AckInvalid) without desynchronizing the connection —
// the next frame commits and acks OK.
func TestStreamBadPayloadNacked(t *testing.T) {
	svc, ts, _ := newTestServer(t, Config{Options: testOptions()})
	addr := startStream(t, svc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(tupleio.AppendHello(nil, tupleio.StreamFormatCounted)); err != nil {
		t.Fatal(err)
	}
	var reply [tupleio.HelloReplySize]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatal(err)
	}
	if status, _, err := tupleio.ParseHelloReply(reply[:]); err != nil || status != tupleio.HelloOK {
		t.Fatalf("handshake: status=%d err=%v", status, err)
	}

	// Frame 1: claims 5 tuples, carries none — intact framing, bad payload.
	bad := []byte{0x05}
	wire := append(tupleio.AppendFrameHeader(nil, 1, uint32(len(bad))), bad...)
	// Frame 2: a well-formed batch.
	good := tupleio.AppendCountedBatch(nil, []correlated.Tuple{{X: 1, Y: 2, W: 1}})
	wire = append(wire, tupleio.AppendFrameHeader(nil, 2, uint32(len(good)))...)
	wire = append(wire, good...)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}

	var ack [tupleio.AckSize]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatal(err)
	}
	seq, _, status, err := tupleio.ParseAck(ack[:])
	if err != nil || seq != 1 || status != tupleio.AckInvalid {
		t.Fatalf("first ack: seq=%d status=%d err=%v", seq, status, err)
	}
	if v := metricValue(t, scrape(t, ts.URL), "corrd_stream_frame_errors_total"); v != 1 {
		t.Fatalf("corrd_stream_frame_errors_total %v after one bad payload, want 1", v)
	}
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatal(err)
	}
	seq, _, status, err = tupleio.ParseAck(ack[:])
	if err != nil || seq != 2 || status != tupleio.AckOK {
		t.Fatalf("second ack: seq=%d status=%d err=%v", seq, status, err)
	}
	if n := svc.Engine().Count(); n != 1 {
		t.Fatalf("engine holds %d tuples, want 1", n)
	}
}

// TestStreamSeqGapClosesConn: a sequence gap means the sender is
// desynchronized from the ack stream; the server drops the connection
// without acking anything.
func TestStreamSeqGapClosesConn(t *testing.T) {
	svc, _, _ := newTestServer(t, Config{Options: testOptions()})
	addr := startStream(t, svc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(tupleio.AppendHello(nil, tupleio.StreamFormatCounted)); err != nil {
		t.Fatal(err)
	}
	var reply [tupleio.HelloReplySize]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatal(err)
	}
	payload := tupleio.AppendCountedBatch(nil, []correlated.Tuple{{X: 1, Y: 2, W: 1}})
	wire := append(tupleio.AppendFrameHeader(nil, 5, uint32(len(payload))), payload...)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := io.ReadFull(conn, one[:]); err != io.EOF {
		t.Fatalf("read after gap: %v (want EOF)", err)
	}
	if n := svc.Engine().Count(); n != 0 {
		t.Fatalf("engine ingested %d tuples from a desynced conn", n)
	}
}

// TestStreamRejectsBadHello: an unsupported version or format is
// refused in the hello reply — every replication format included, the
// last one too, so an old replica is turned away rather than taken for an
// ingest client — and garbage gets no reply at all.
func TestStreamRejectsBadHello(t *testing.T) {
	svc, _, _ := newTestServer(t, Config{Options: testOptions(), WALDir: t.TempDir()})
	addr := startStream(t, svc)

	var one [1]byte
	for _, tc := range []struct {
		name        string
		at          int // hello byte to overwrite
		value, want uint8
	}{
		{"future version", 4, tupleio.StreamVersion + 1, tupleio.HelloBadVersion},
		{"replication format of WAL version 1", 5, 3, tupleio.HelloBadFormat},
		{"replication format of WAL version 2", 5, 4, tupleio.HelloBadFormat},
		{"replication format of WAL version 3", 5, 5, tupleio.HelloBadFormat},
		{"replication format of WAL version 4", 5, 6, tupleio.HelloBadFormat},
		{"replication format of WAL version 5, retired", 5, 7, tupleio.HelloBadFormat},
		{"unknown format", 5, 99, tupleio.HelloBadFormat},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := tupleio.AppendHello(nil, tupleio.StreamFormatCounted)
		hello[tc.at] = tc.value
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		var reply [tupleio.HelloReplySize]byte
		if _, err := io.ReadFull(conn, reply[:]); err != nil {
			t.Fatal(err)
		}
		status, _, err := tupleio.ParseHelloReply(reply[:])
		if err != nil || status != tc.want {
			t.Fatalf("%s: reply status=%d err=%v, want status %d", tc.name, status, err, tc.want)
		}
		if _, err := io.ReadFull(conn, one[:]); err != io.EOF {
			t.Fatalf("%s: conn stayed open after refused hello: %v", tc.name, err)
		}
	}

	// Garbage magic: the server just hangs up.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(bytes.Repeat([]byte{0xFF}, tupleio.HelloSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn2, one[:]); err != io.EOF {
		t.Fatalf("garbage hello got a reply: %v", err)
	}
}

// TestMixedHTTPStreamCrashRecoveryExact extends the concurrent
// crash-exactness contract to mixed transports: HTTP and stream
// ingesters run concurrently against a durable server, every
// acknowledged batch matches a serial offline oracle float-exactly, and
// a kill -9 recovers the pre-crash merged state byte-identically —
// streamed batches ride the same group-commit WAL records as HTTP ones.
func TestMixedHTTPStreamCrashRecoveryExact(t *testing.T) {
	o := testOptions()
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	addr := startStream(t, svc)
	ctx := context.Background()

	const (
		httpClients   = 3
		streamClients = 3
		batches       = 8
		batchSize     = 500
	)
	var wg sync.WaitGroup
	for i := 0; i < httpClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := client.New(ts.URL, client.WithChunkSize(batchSize))
			for j := 0; j < batches; j++ {
				if err := cl.AddBatch(ctx, testStream(batchSize, uint64(31000+i*100+j))); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < streamClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := client.DialStream(ctx, addr)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < batches; j++ {
				if err := st.Send(testStream(batchSize, uint64(41000+i*100+j))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
				return
			}
			if got := st.Acked(); got != batches*batchSize {
				t.Errorf("stream client %d acked %d tuples, want %d", i, got, batches*batchSize)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Serial oracle over every acknowledged batch, both transports.
	offline, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < httpClients; i++ {
		for j := 0; j < batches; j++ {
			if err := offline.AddBatch(testStream(batchSize, uint64(31000+i*100+j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < streamClients; i++ {
		for j := 0; j < batches; j++ {
			if err := offline.AddBatch(testStream(batchSize, uint64(41000+i*100+j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := uint64((httpClients + streamClients) * batches * batchSize)
	cl := client.New(ts.URL)
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != total {
		t.Fatalf("server holds %d tuples, acknowledged %d", stats.Count, total)
	}
	if stats.StreamTuples != uint64(streamClients*batches*batchSize) {
		t.Fatalf("stream tuples %d, want %d", stats.StreamTuples, streamClients*batches*batchSize)
	}
	for _, c := range []uint64{0, 25, 100, 200, distinctY, 1 << 15} {
		want, err1 := offline.QueryLE(c)
		got, err2 := cl.QueryLE(ctx, c)
		if err1 != nil || err2 != nil {
			t.Fatalf("c=%d: %v %v", c, err1, err2)
		}
		if got != want {
			t.Fatalf("LE c=%d: server %v oracle %v", c, got, want)
		}
	}

	// Kill -9 and recover: restored bytes must equal the pre-crash state.
	pre, err := svc.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	crash(ts, svc)
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	recovered, err := svc2.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered, pre) {
		t.Fatalf("recovery differs from pre-crash state (%d vs %d bytes)", len(recovered), len(pre))
	}
	n := svc2.Engine().Count()
	if n != total {
		t.Fatalf("recovered count %d, want %d", n, total)
	}
}

// TestStreamGracefulDrain: Close with a connected stream client drains
// cleanly — the client's in-flight frames are acked (or refused with
// AckShutdown), never left hanging.
func TestStreamGracefulDrain(t *testing.T) {
	svc, err := New(Config{Options: testOptions(), WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	addr := startStream(t, svc)
	ctx := context.Background()
	st, err := client.DialStream(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(testStream(500, 77)); err != nil {
		t.Fatal(err)
	}
	// Close the server while the client connection is live: the reader
	// drains, the acker flushes, and the server's wg.Wait returns.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// The client's stream ends; Close reports either a clean shutdown
	// (all acks in) or the connection ending early — never a hang.
	st.Close()
}

// BenchmarkStreamDecode measures the per-frame server decode path at
// steady state — frame header + payload read into a reused buffer, then
// admission's check of the counted batch, which keeps it as its bytes —
// the path the ≥3×-over-HTTP target rides. The contract is ~0 allocs/op
// (asserted by TestStreamDecodeZeroAlloc).
func BenchmarkStreamDecode(b *testing.B) {
	svc, err := New(Config{Options: testOptions(), WALDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	batch := testStream(512, 99)
	payload := tupleio.AppendCountedBatch(nil, batch)
	wire := append(tupleio.AppendFrameHeader(nil, 1, uint32(len(payload))), payload...)
	br := bytes.NewReader(wire)
	fr := tupleio.NewFrameReader(br, 1<<20)
	d := svc.dec.Get().(*decodeState)
	defer svc.putDecodeState(d)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(wire)
		_, out, err := fr.Next(d.body[:cap(d.body)])
		if err != nil {
			b.Fatal(err)
		}
		d.body = out
		if _, err = tupleio.CheckCounted(d.body, svc.cfg.Options.YMax); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamDecodeZeroAlloc pins the benchmark's contract: after the
// first frame grows the reused buffers, the per-frame decode allocates
// nothing.
func TestStreamDecodeZeroAlloc(t *testing.T) {
	svc, err := New(Config{Options: testOptions(), WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	payload := tupleio.AppendCountedBatch(nil, testStream(512, 99))
	wire := append(tupleio.AppendFrameHeader(nil, 1, uint32(len(payload))), payload...)
	br := bytes.NewReader(wire)
	fr := tupleio.NewFrameReader(br, 1<<20)
	d := svc.dec.Get().(*decodeState)
	defer svc.putDecodeState(d)
	decode := func() {
		br.Reset(wire)
		_, out, err := fr.Next(d.body[:cap(d.body)])
		if err != nil {
			t.Fatal(err)
		}
		d.body = out
		if _, err = tupleio.CheckCounted(d.body, svc.cfg.Options.YMax); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm up: grow the payload buffer once
	if allocs := testing.AllocsPerRun(100, decode); allocs > 0 {
		t.Fatalf("steady-state frame decode costs %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkHTTPIngestDecode is the pooling-audit counterpart for the
// HTTP path: body copy into the pooled buffer, the count put in front of
// its records (what handleIngest does between readBody and enqueue), and
// admission's check. Same pooled decodeState, same ~0 allocs/op contract
// (TestHTTPIngestDecodeZeroAlloc).
func BenchmarkHTTPIngestDecode(b *testing.B) {
	svc, err := New(Config{Options: testOptions(), WALDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	body := tupleio.AppendBatch(nil, testStream(512, 99))
	d := svc.dec.Get().(*decodeState)
	defer svc.putDecodeState(d)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.body = tupleio.Counted(append(d.body[:0], body...))
		if _, err = tupleio.CheckCounted(d.body, svc.cfg.Options.YMax); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHTTPIngestDecodeZeroAlloc pins the HTTP decode path's steady
// state: buffers recycled through the shared pool mean zero allocations
// per request once warm — the regression test for the pooling audit.
func TestHTTPIngestDecodeZeroAlloc(t *testing.T) {
	svc, err := New(Config{Options: testOptions(), WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	body := tupleio.AppendBatch(nil, testStream(512, 99))
	d := svc.dec.Get().(*decodeState)
	defer svc.putDecodeState(d)
	decode := func() {
		d.body = tupleio.Counted(append(d.body[:0], body...))
		if _, err := tupleio.CheckCounted(d.body, svc.cfg.Options.YMax); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs > 0 {
		t.Fatalf("steady-state HTTP decode costs %.1f allocs/op, want 0", allocs)
	}
}

// TestPutDecodeStateClearsStreamFields: recycling a decodeState drops
// the per-request stream fields (seq, LSN) so a pooled state reused by
// the other transport cannot leak a stale ack identity.
func TestPutDecodeStateClearsStreamFields(t *testing.T) {
	svc, err := New(Config{Options: testOptions(), WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	d := svc.dec.Get().(*decodeState)
	d.streamSeq = 9
	d.job.lsn = 7
	d.job.member, d.job.n = []byte{1, 1, 1, 1}, 1
	svc.putDecodeState(d)
	if d.streamSeq != 0 || d.job.lsn != 0 || d.job.member != nil || d.job.n != 0 {
		t.Fatalf("recycled state keeps per-request fields: seq=%d lsn=%d member=%v n=%d",
			d.streamSeq, d.job.lsn, d.job.member, d.job.n)
	}
}
