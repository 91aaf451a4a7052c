package replica

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamagg/correlated/internal/tupleio"
)

// fakePrimary is a loopback stand-in for a primary's stream listener:
// it accepts connections one at a time, answers each replication hello
// with the next status in replies (HelloOK once they run out), and on an
// accepted one reads the start request and hands (connection number,
// start LSN, conn) to serve. The connection closes when serve returns.
type fakePrimary struct {
	ln      net.Listener
	accepts atomic.Int32
	wg      sync.WaitGroup
}

func startPrimary(t *testing.T, replies []uint8, serve func(n int, startLSN uint64, c net.Conn)) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePrimary{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			n := int(p.accepts.Add(1))
			var hello [tupleio.HelloSize]byte
			if _, err := io.ReadFull(c, hello[:]); err != nil {
				t.Errorf("conn %d: read hello: %v", n, err)
				c.Close()
				continue
			}
			if _, format, err := tupleio.ParseHello(hello[:]); err != nil || format != tupleio.StreamFormatReplica {
				t.Errorf("conn %d: hello format %d (err %v), want the replication format", n, format, err)
			}
			status := tupleio.HelloOK
			if n <= len(replies) {
				status = replies[n-1]
			}
			c.Write(tupleio.AppendHelloReply(nil, status, 1<<20))
			if status == tupleio.HelloOK {
				var req [tupleio.ReplStartSize]byte
				if _, err := io.ReadFull(c, req[:]); err != nil {
					t.Errorf("conn %d: read start request: %v", n, err)
				} else if start, err := tupleio.ParseReplStart(req[:]); err != nil {
					t.Errorf("conn %d: start request: %v", n, err)
				} else {
					serve(n, start, c)
				}
			}
			c.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

// frame builds one replication frame: header, then the payload a
// tupleio.AppendRepl* function writes.
func frame(seq uint64, appendPayload func([]byte) []byte) []byte {
	b := appendPayload(tupleio.AppendFrameHeader(nil, seq, 0))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-tupleio.FrameHeaderSize))
	return b
}

func record(lsn uint64, typ uint8, payload string) []byte {
	return frame(lsn, func(b []byte) []byte { return tupleio.AppendReplRecord(b, typ, []byte(payload)) })
}

func waitDone(t *testing.T, f *Follower) {
	t.Helper()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the follower loop did not exit")
	}
}

// TestFollowerDeliversAndResumes: handshake, then records reach
// ApplyRecord in LSN order with their type and payload, a snapshot frame
// reaches InstallSnapshot, heartbeats and records feed OnPrimaryLSN — and
// when the connection drops the follower redials and asks for exactly
// what StartLSN() says it holds.
func TestFollowerDeliversAndResumes(t *testing.T) {
	type applied struct {
		lsn     uint64
		typ     uint8
		payload string
	}
	var (
		mu        sync.Mutex
		position  uint64
		got       []applied
		snapshots []string
		frontier  []uint64
		starts    []uint64
	)
	caughtUp, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	p := startPrimary(t, nil, func(n int, start uint64, c net.Conn) {
		mu.Lock()
		starts = append(starts, start)
		mu.Unlock()
		switch n {
		case 1:
			c.Write(record(1, 1, "one"))
			c.Write(record(2, 2, "two"))
			c.Write(frame(5, tupleio.AppendReplHeartbeat))
			c.Write(record(3, 6, ""))
			c.Write(frame(10, func(b []byte) []byte { return tupleio.AppendReplSnapshot(b, []byte("image@10")) }))
			c.Write(record(11, 1, "eleven"))
			// Returning closes the connection: the follower must redial.
		case 2:
			c.Write(record(12, 1, "twelve"))
			<-release // hold the connection: a third dial would be the test's doing
		}
	})
	f := Start(Config{
		Addr: p.ln.Addr().String(),
		StartLSN: func() uint64 {
			mu.Lock()
			defer mu.Unlock()
			return position
		},
		ApplyRecord: func(lsn uint64, typ uint8, payload []byte) error {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, applied{lsn, typ, string(payload)})
			position = lsn
			if lsn == 12 {
				close(caughtUp)
			}
			return nil
		},
		InstallSnapshot: func(covered uint64, data []byte) error {
			mu.Lock()
			defer mu.Unlock()
			snapshots = append(snapshots, string(data))
			position = covered
			return nil
		},
		OnPrimaryLSN: func(lsn uint64) {
			mu.Lock()
			frontier = append(frontier, lsn)
			mu.Unlock()
		},
	})
	select {
	case <-caughtUp:
	case <-time.After(10 * time.Second):
		t.Fatal("record 12 never arrived over the second connection")
	}
	f.Stop()
	if err := f.Err(); err != nil {
		t.Fatalf("Err after Stop: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []applied{{1, 1, "one"}, {2, 2, "two"}, {3, 6, ""}, {11, 1, "eleven"}, {12, 1, "twelve"}}
	if !slices.Equal(got, want) {
		t.Fatalf("applied %v, want %v", got, want)
	}
	if !slices.Equal(snapshots, []string{"image@10"}) {
		t.Fatalf("installed snapshots %q", snapshots)
	}
	if !slices.Equal(frontier, []uint64{1, 2, 5, 3, 10, 11, 12}) {
		t.Fatalf("OnPrimaryLSN saw %v", frontier)
	}
	if !slices.Equal(starts, []uint64{0, 11}) {
		t.Fatalf("start requests %v, want a fresh start then a resume from 11", starts)
	}
}

// TestFollowerStopsWhenRefused: a primary that answers HelloBadFormat —
// what a corrd from the other side of the storage version break answers
// the replication hello — ends the loop with ErrRejected after that one
// connection, where a dropped connection is redialled.
func TestFollowerStopsWhenRefused(t *testing.T) {
	p := startPrimary(t, []uint8{tupleio.HelloBadFormat}, func(n int, _ uint64, c net.Conn) {
		t.Errorf("conn %d was served after a refused hello", n)
	})
	f := Start(Config{
		Addr:        p.ln.Addr().String(),
		StartLSN:    func() uint64 { return 0 },
		ApplyRecord: func(uint64, uint8, []byte) error { return errors.New("no record was sent") },
	})
	waitDone(t, f)
	if err := f.Err(); !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "Storage format") {
		t.Fatalf("Err = %v, want ErrRejected pointing at the README", err)
	}
	if n := p.accepts.Load(); n != 1 {
		t.Fatalf("the follower dialled %d times, want 1", n)
	}
}

// TestFollowerPrimaryLossFiresOnce: a primary that completes the
// handshake and then says nothing — no record, no heartbeat — past
// HeartbeatTimeout is declared lost: OnPrimaryLoss fires exactly once
// and the loop exits with ErrPrimaryLost.
func TestFollowerPrimaryLossFiresOnce(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p := startPrimary(t, nil, func(int, uint64, net.Conn) { <-release })
	var losses atomic.Int32
	f := Start(Config{
		Addr:             p.ln.Addr().String(),
		StartLSN:         func() uint64 { return 0 },
		ApplyRecord:      func(uint64, uint8, []byte) error { return nil },
		HeartbeatTimeout: 100 * time.Millisecond,
		OnPrimaryLoss:    func() { losses.Add(1) },
	})
	waitDone(t, f)
	if err := f.Err(); !errors.Is(err, ErrPrimaryLost) {
		t.Fatalf("Err = %v, want ErrPrimaryLost", err)
	}
	if n := losses.Load(); n != 1 {
		t.Fatalf("OnPrimaryLoss fired %d times, want 1", n)
	}
}
