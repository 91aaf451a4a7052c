package wal

import (
	"bytes"
	"errors"
	"syscall"
	"testing"

	"github.com/streamagg/correlated/internal/fault"
)

func planOrDie(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAppendRewindKeepsLogClean: a failed append whose partial frame is
// successfully rewound leaves the log working — the next append lands on
// a clean tail, and replay sees exactly the acknowledged records.
func TestAppendRewindKeepsLogClean(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	w, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := appendSync(w, RecordIngest, []byte("one")); err != nil {
		t.Fatal(err)
	}
	inj.SetPlan(planOrDie(t, "write:torn@1"))
	if _, err := appendSync(w, RecordIngest, []byte("torn-away")); err == nil {
		t.Fatal("append under write fault: want error")
	}
	if w.Broken() {
		t.Fatal("rewind succeeded, log must not be broken")
	}
	inj.SetPlan(nil)
	if _, err := appendSync(w, RecordIngest, []byte("two")); err != nil {
		t.Fatalf("append after rewind: %v", err)
	}
	var got []string
	err = w.Replay(0, func(lsn uint64, typ RecordType, payload []byte) error {
		got = append(got, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("replay = %q, want [one two]", got)
	}
}

// TestBrokenLogProbeRepair: when the rewind itself fails the log goes
// sticky-broken (ErrBroken on every append); once the disk heals, Probe
// repairs the tail and a full append+fsync round trip works again.
func TestBrokenLogProbeRepair(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	w, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := appendSync(w, RecordIngest, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	// The write fails and the rewind's truncate fails too: broken.
	inj.SetPlan(planOrDie(t, "write:err@1;truncate:err@1"))
	if _, err := appendSync(w, RecordIngest, []byte("lost")); err == nil {
		t.Fatal("append under fault: want error")
	}
	if !w.Broken() {
		t.Fatal("failed rewind must leave the log broken")
	}
	if _, err := appendSync(w, RecordIngest, []byte("rejected")); !errors.Is(err, ErrBroken) {
		t.Fatalf("append on broken log: want ErrBroken, got %v", err)
	}
	// Probe under the same fault plan must fail and leave it broken.
	inj.SetPlan(planOrDie(t, "truncate:err@1"))
	if _, err := w.Probe(); err == nil {
		t.Fatal("probe with failing truncate: want error")
	}
	if !w.Broken() {
		t.Fatal("failed probe must leave the log broken")
	}
	// Disk heals: probe repairs and its barrier completes the round trip,
	// appends work, replay is consistent.
	inj.SetPlan(nil)
	if _, err := w.Probe(); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("barrier behind the probe record: %v", err)
	}
	if w.Broken() {
		t.Fatal("successful probe must clear broken")
	}
	if _, err := appendSync(w, RecordIngest, []byte("after")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	var got []string
	err = w.Replay(0, func(lsn uint64, typ RecordType, payload []byte) error {
		if typ == RecordIngest {
			got = append(got, string(payload))
		} else if typ != RecordProbe {
			t.Fatalf("unexpected record type %d", typ)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "keep" || got[1] != "after" {
		t.Fatalf("replay = %q, want [keep after]", got)
	}
}

// TestENOSPCThenReopen: a volume that fills mid-append loses only the
// unacknowledged record; reopening the directory (fault-free) recovers
// every acknowledged one.
func TestENOSPCThenReopen(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS())
	w, err := Open(dir, Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	payload := make([]byte, 128)
	inj.SetPlan(planOrDie(t, "write/wal-:enospc@2048"))
	for i := 0; i < 64; i++ {
		lsn, err := appendSync(w, RecordIngest, payload)
		if err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d: want ENOSPC, got %v", i, err)
			}
			break
		}
		acked = append(acked, lsn)
	}
	if len(acked) == 0 || len(acked) == 64 {
		t.Fatalf("acked %d appends; want the volume to fill partway", len(acked))
	}
	w.Close()

	// Fault-free restart: the acked prefix replays intact.
	w2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var replayed []uint64
	err = w2.Replay(0, func(lsn uint64, typ RecordType, p []byte) error {
		replayed = append(replayed, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) < len(acked) {
		t.Fatalf("replayed %d records, acked %d — acknowledged data lost", len(replayed), len(acked))
	}
	for i, lsn := range acked {
		if replayed[i] != lsn {
			t.Fatalf("replayed[%d] = %d, want %d", i, replayed[i], lsn)
		}
	}
}

// TestNthSyncFaultUnderSyncAlways: the Nth fsync failing turns exactly
// one append + barrier into an error; earlier and later ones are
// unaffected.
func TestNthSyncFaultUnderSyncAlways(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	w, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Sync ordinals: startSegment's dir sync is op 1, so the first
	// append's file fsync targets matching on the wal- name filter.
	inj.SetPlan(planOrDie(t, "sync/wal-:err@2"))
	if _, err := appendSync(w, RecordIngest, []byte("a")); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if _, err := appendSync(w, RecordIngest, []byte("b")); err == nil {
		t.Fatal("append 2: want fsync error")
	}
	if _, err := appendSync(w, RecordIngest, []byte("c")); err != nil {
		t.Fatalf("append 3: %v", err)
	}
}

// TestFailedBarrierRewindsWholeGroup: the barrier owns the rewind. A
// record appended for one waiter and a later one share the unsynced
// suffix, so when the barrier issued on behalf of the later record fails,
// Sync must return with both already gone: nothing is left unsynced for a
// following Sync to make durable behind its writer's back, the LSNs are
// reused, and a reopen replays exactly the records whose barrier returned
// nil. The second case makes a segment seal fall due between the two
// records: a seal syncs, and it must not sync half a group. Under
// interval and off the same failure rewinds nothing.
func TestFailedBarrierRewindsWholeGroup(t *testing.T) {
	for _, tc := range []struct {
		name         string
		segmentBytes int64
	}{
		{"one segment", 0},
		{"seal due inside the group", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector(fault.OS())
			w, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: tc.segmentBytes, FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := appendSync(w, RecordIngest, []byte("acked-1")); err != nil {
				t.Fatal(err)
			}
			inj.SetPlan(planOrDie(t, "sync/wal-:err@1"))
			first, err := w.AppendNoSync(RecordIngest, bytes.Repeat([]byte("G"), 80))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.AppendNoSync(RecordPush, []byte("later")); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err == nil {
				t.Fatal("barrier under sync:err@1: want error")
			}
			if got := w.LastLSN(); got != first-1 {
				t.Fatalf("the failed Sync left records behind: LastLSN %d, want %d", got, first-1)
			}
			// The fault was one-shot: this barrier succeeds, and must have
			// nothing of the failed group to make durable.
			if err := w.Sync(); err != nil {
				t.Fatalf("following Sync: %v", err)
			}
			if got := w.FollowableLSN(); got != first-1 {
				t.Fatalf("a later Sync made a nacked record durable: frontier %d, want %d", got, first-1)
			}
			if lsn, err := appendSync(w, RecordIngest, []byte("acked-2")); err != nil || lsn != first {
				t.Fatalf("append after the rewind: lsn %d err %v, want the reused LSN %d", lsn, err, first)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			got := collect(t, w2, 0)
			if len(got) != 2 || string(got[0].payload) != "acked-1" || string(got[1].payload) != "acked-2" {
				t.Fatalf("reopen replayed %d records %+v, want exactly acked-1, acked-2", len(got), got)
			}
		})
	}
	for _, p := range []SyncPolicy{SyncInterval, SyncOff} {
		t.Run(p.String()+" keeps the suffix", func(t *testing.T) {
			inj := fault.NewInjector(fault.OS())
			w, err := Open(t.TempDir(), Options{Sync: p, FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, err := w.AppendNoSync(RecordIngest, []byte("acked without a barrier")); err != nil {
				t.Fatal(err)
			}
			inj.SetPlan(planOrDie(t, "sync/wal-:err@1"))
			if err := w.Sync(); err == nil {
				t.Fatal("Sync under sync:err@1: want error")
			}
			if got := collect(t, w, 0); len(got) != 1 {
				t.Fatalf("a failed Sync under %s rewound acknowledged data: %d records", p, len(got))
			}
		})
	}
}

// TestProbeFinishesFailedRewind: when the barrier fails and the rewind's
// own truncate fails too, the log goes sticky-broken with the nacked
// record's bytes still on disk — and the repair Probe performs once the
// disk heals must cut them off, not adopt them.
func TestProbeFinishesFailedRewind(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	w, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := appendSync(w, RecordIngest, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	inj.SetPlan(planOrDie(t, "sync/wal-:err@1;truncate:err@1"))
	if _, err := appendSync(w, RecordIngest, []byte("nacked")); err == nil {
		t.Fatal("barrier under fault: want error")
	}
	if !w.Broken() {
		t.Fatal("a rewind that could not truncate must leave the log broken")
	}
	inj.SetPlan(nil)
	if _, err := w.Probe(); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, r := range collect(t, w, 0) {
		if string(r.payload) == "nacked" {
			t.Fatalf("the repaired log holds the nacked record at LSN %d", r.lsn)
		}
	}
}
