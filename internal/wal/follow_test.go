package wal

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// followCollect runs Follow in a goroutine, streaming records into a
// channel, and returns the channel plus a stop func that waits for the
// follower to exit and reports its error.
func followCollect(w *WAL, from uint64) (<-chan replayed, func() error) {
	out := make(chan replayed, 1024)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- w.Follow(from, stop, func(lsn uint64, typ RecordType, payload []byte) error {
			out <- replayed{lsn, typ, append([]byte(nil), payload...)}
			return nil
		})
		close(out)
	}()
	var once sync.Once
	return out, func() error {
		once.Do(func() { close(stop) })
		return <-errc
	}
}

// recvN drains n records from the follower with a timeout, so a stuck
// follower fails the test instead of hanging it.
func recvN(t *testing.T, ch <-chan replayed, n int) []replayed {
	t.Helper()
	got := make([]replayed, 0, n)
	timeout := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case r, ok := <-ch:
			if !ok {
				t.Fatalf("follower exited after %d of %d records", len(got), n)
			}
			got = append(got, r)
		case <-timeout:
			t.Fatalf("timed out after %d of %d records", len(got), n)
		}
	}
	return got
}

// TestFollowLiveTail: a follower started before any appends sees every
// record in LSN order, across segment rotations, while appends race it;
// under SyncAlways it only ever sees fsynced records.
func TestFollowLiveTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ch, stop := followCollect(w, 0)
	const n = 60
	var want []replayed
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i%29)
		lsn, err := appendSync(w, RecordIngest, payload)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, replayed{lsn, RecordIngest, payload})
	}
	got := recvN(t, ch, n)
	for i := range want {
		if got[i].lsn != want[i].lsn || got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if st := w.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation during follow, stats %+v", st)
	}
	if err := stop(); err != nil {
		t.Fatalf("follower exit: %v", err)
	}
}

// TestFollowFromMidLog: a follower starting at from=k sees exactly the
// records after k — history first, then live appends.
func TestFollowFromMidLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 10; i++ {
		if _, err := appendSync(w, RecordIngest, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ch, stop := followCollect(w, 4)
	for i := 10; i < 15; i++ {
		if _, err := appendSync(w, RecordIngest, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := recvN(t, ch, 11) // LSNs 5..15
	for i, r := range got {
		wantLSN := uint64(5 + i)
		if r.lsn != wantLSN || r.payload[0] != byte(4+i) {
			t.Fatalf("record %d: lsn %d payload %v", i, r.lsn, r.payload)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("follower exit: %v", err)
	}
}

// TestFollowDurableFrontier: under SyncAlways a follower must not see a
// record appended with AppendNoSync until the explicit Sync — the
// frontier is the fsync barrier, not the append.
func TestFollowDurableFrontier(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ch, stop := followCollect(w, 0)
	if _, err := w.AppendNoSync(RecordIngest, []byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		t.Fatalf("follower saw unsynced record %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, ch, 1)
	if got[0].lsn != 1 {
		t.Fatalf("got %+v", got[0])
	}
	if err := stop(); err != nil {
		t.Fatalf("follower exit: %v", err)
	}
}

// TestFollowTruncatedHorizon: a follower asking for records a
// checkpoint has pruned gets ErrTruncated — the signal to catch up from
// a snapshot instead.
func TestFollowTruncatedHorizon(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 20; i++ {
		if _, err := appendSync(w, RecordIngest, bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkpoint(w, 20); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.PrunedSegments == 0 {
		t.Fatalf("checkpoint pruned nothing, stats %+v", st)
	}
	stop := make(chan struct{})
	defer close(stop)
	err = w.Follow(0, stop, func(lsn uint64, typ RecordType, payload []byte) error { return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("follow from pruned position: %v, want ErrTruncated", err)
	}
}

// TestFollowStopsOnClose: Close unblocks a waiting follower with
// ErrClosed rather than leaking it.
func TestFollowStopsOnClose(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		errc <- w.Follow(0, stop, func(uint64, RecordType, []byte) error { return nil })
	}()
	time.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("follower exit: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not exit on Close")
	}
}
