package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"strings"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// nested is a RecordForward's payload: site's records, body, behind its id.
func nested(site uint64, body []byte) []byte {
	return append(binary.AppendUvarint(nil, site), body...)
}

// loggedForwards is every RecordForward payload svc's log holds, in order.
func loggedForwards(t *testing.T, svc *Server) (out [][]byte) {
	t.Helper()
	err := svc.wal.Replay(0, func(_ uint64, typ wal.RecordType, payload []byte) error {
		if typ == wal.RecordForward {
			out = append(out, bytes.Clone(payload))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestForwardRefusesYPastYMax: a forwarded ingest record holding a y past
// the server's YMax, at the top of a forward or nested in one, is refused
// with a 400 before anything is logged or applied.
func TestForwardRefusesYPastYMax(t *testing.T) {
	svc, _, cl := newTestServer(t, Config{Options: testOptions()})
	past, err := appendIngest(nil, []tenantBatch{{key: []byte("y"), tuples: []correlated.Tuple{{X: 1, Y: testOptions().YMax + 1, W: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	top := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), past)
	for name, body := range map[string][]byte{
		"at the top": top,
		"nested":     client.AppendForwardRecord(nil, 1, uint8(wal.RecordForward), nested(0xdef, top)),
	} {
		last := svc.wal.LastLSN()
		_, err := cl.Forward(context.Background(), 0xabc, wal.Version, 0, body)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(err.Error(), "exceeds YMax") ||
			svc.wal.LastLSN() != last || svc.tenantByName("y") != nil {
			t.Fatalf("%s: a forward with y past YMax: %v, log at LSN %d (was %d), tenant made %t; want a 400 naming YMax, nothing logged or made",
				name, err, svc.wal.LastLSN(), last, svc.tenantByName("y") != nil)
		}
	}
}

// TestForwardRefusesDepth: a record may pass through maxForwardDepth
// coordinators; a forward nesting one more level is refused with a 400.
func TestForwardRefusesDepth(t *testing.T) {
	svc, _, cl := newTestServer(t, Config{Options: testOptions()})
	body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, "d"))
	for depth := 1; depth <= maxForwardDepth+1; depth++ {
		body = client.AppendForwardRecord(nil, 1, uint8(wal.RecordForward), nested(uint64(0x100+depth), body))
		_, err := cl.Forward(context.Background(), uint64(depth), wal.Version, 0, body)
		var ae *client.APIError
		if refused := errors.As(err, &ae) && ae.Status == http.StatusBadRequest; refused != (depth > maxForwardDepth) {
			t.Fatalf("a record nested %d forwards deep: %v; want it refused only past %d", depth, err, maxForwardDepth)
		}
	}
	if n := svc.tenantByName("d").eng.Count(); n != 20 {
		t.Fatalf("tenant d holds %d tuples; want the 20 of the first forward, the others dropped at their sites' marks", n)
	}
}

// TestForwardNestedProbe: a probe nested in a forward is a record the
// server that logged the forward dropped: it applies nothing, and it moves
// its own site's mark, live and after a restart replays the log.
func TestForwardNestedProbe(t *testing.T) {
	cfg := walConfig(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner := client.AppendForwardRecord(nil, 5, uint8(wal.RecordProbe), nil)
	body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordForward), nested(0xdef, inner))
	if err := svc.commit(&ingestJob{op: opForward, site: 0xabc, image: body}); err != nil {
		t.Fatal(err)
	}
	for restart := range 2 {
		if marks := svc.marks; marks[0xabc] != 1 || marks[0xdef] != 5 || len(svc.tenantList()) != 1 {
			t.Fatalf("restart %d: marks %v and %d tenants; want site abc at 1, site def at 5, only the default tenant", restart, marks, len(svc.tenantList()))
		}
		crash(nil, svc)
		if svc, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
}

// TestForwardBehindACheckpointIsBusy: a forward decided in the group of an
// earlier forward whose checkpoint's records apply is shed busy, since that
// apply replaces the marks its decide reads; behind one whose checkpoint's
// records are dropped, as a coordinator drops them, it is decided as ever.
func TestForwardBehindACheckpointIsBusy(t *testing.T) {
	boot := client.AppendForwardRecord(nil, 1, uint8(wal.RecordCheckpoint), encodeCheckpoint(nil, map[uint64]uint64{7: 3}))
	for _, standby := range []bool{true, false} {
		cfg := walConfig(t)
		cfg.Standby = standby
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.hear(0xabc)
		for name, body := range map[string][]byte{
			"at the top": boot,
			"nested":     client.AppendForwardRecord(nil, 1, uint8(wal.RecordForward), nested(0xabc, boot)),
		} {
			a := &ingestJob{op: opForward, site: 0xabc, image: body}
			b := &ingestJob{op: opForward, site: 0xdef, image: client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, "b"))}
			if err := errors.Join(svc.validateForward(a), svc.validateForward(b)); err != nil {
				t.Fatal(err)
			}
			svc.mu.Lock()
			recs := svc.decideLocked([]*ingestJob{a, b})
			svc.mu.Unlock()
			decided := 2 // the forward behind it is decided too
			if standby {
				decided = 1
			}
			if busy := b.kind == ingestErrBusy && errors.Is(b.err, errOverloaded); busy != standby || a.kind != ingestOK || len(recs) != decided {
				t.Fatalf("standby %t, checkpoint %s: the forward behind it is %d (%v), %d records decided; want busy only where the checkpoint applies",
					standby, name, b.kind, b.err, len(recs))
			}
		}
		svc.Close()
	}
}

// TestForwardLoggedAsAdmitted: a forward is logged as one RecordForward,
// its site's id and then the records it admitted, each as the site sent it,
// where its checkpoints' records apply; where they do not, each of them is
// logged as a probe at every depth, and every other record is as it came.
func TestForwardLoggedAsAdmitted(t *testing.T) {
	engine, err := newEngine(&Config{Options: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AddBatch(testStream(50, 1)); err != nil {
		t.Fatal(err)
	}
	image, err := engine.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	img := append(tupleio.AppendTenant(nil, "x"), image...)
	ck := encodeCheckpoint([]string{"x"}, nil)
	ingest := ingestRecord(t, "a", "b")
	// The site's checkpoint, then an ingest record, then a forward of
	// another site's checkpoint and ingest record, nested once more.
	deep := client.AppendForwardRecord(nil, 8, uint8(wal.RecordImage), img)
	deep = client.AppendForwardRecord(deep, 9, uint8(wal.RecordCheckpoint), ck)
	deep = client.AppendForwardRecord(deep, 10, uint8(wal.RecordIngest), ingest)
	mid := client.AppendForwardRecord(nil, 3, uint8(wal.RecordProbe), nil)
	mid = client.AppendForwardRecord(mid, 4, uint8(wal.RecordForward), nested(0x333, deep))
	mid = client.AppendForwardRecord(mid, 5, uint8(wal.RecordIngest), ingest)
	body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordImage), img)
	body = client.AppendForwardRecord(body, 2, uint8(wal.RecordCheckpoint), ck)
	body = client.AppendForwardRecord(body, 3, uint8(wal.RecordIngest), ingest)
	body = client.AppendForwardRecord(body, 4, uint8(wal.RecordForward), nested(0x222, mid))

	deepDropped := client.AppendForwardRecord(nil, 8, uint8(wal.RecordProbe), nil)
	deepDropped = client.AppendForwardRecord(deepDropped, 9, uint8(wal.RecordProbe), nil)
	deepDropped = client.AppendForwardRecord(deepDropped, 10, uint8(wal.RecordIngest), ingest)
	midDropped := client.AppendForwardRecord(nil, 3, uint8(wal.RecordProbe), nil)
	midDropped = client.AppendForwardRecord(midDropped, 4, uint8(wal.RecordForward), nested(0x333, deepDropped))
	midDropped = client.AppendForwardRecord(midDropped, 5, uint8(wal.RecordIngest), ingest)
	dropped := client.AppendForwardRecord(nil, 1, uint8(wal.RecordProbe), nil)
	dropped = client.AppendForwardRecord(dropped, 2, uint8(wal.RecordProbe), nil)
	dropped = client.AppendForwardRecord(dropped, 3, uint8(wal.RecordIngest), ingest)
	dropped = client.AppendForwardRecord(dropped, 4, uint8(wal.RecordForward), nested(0x222, midDropped))

	for _, standby := range []bool{true, false} {
		cfg := walConfig(t)
		cfg.Standby = standby
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.hear(0xabc)
		if err := svc.commit(&ingestJob{op: opForward, site: 0xabc, image: body}); err != nil {
			t.Fatal(err)
		}
		want := nested(0xabc, body)
		if !standby {
			want = nested(0xabc, dropped)
		}
		if got := loggedForwards(t, svc); len(got) != 1 || !bytes.Equal(got[0], want) {
			t.Fatalf("standby %t: the log holds %d forwards, the first %x; want one, %x", standby, len(got), got, want)
		}
		svc.Close()
	}
}

// TestForwardAppliesWhatAdmissionDecoded: a forward's ingest records are
// decoded once, at admission, at every depth, and the apply adds those
// batches as they are: cutting each decoded batch to half between the two
// halves what each tenant holds.
func TestForwardAppliesWhatAdmissionDecoded(t *testing.T) {
	svc, _, _ := newTestServer(t, Config{Options: testOptions()})
	inner := client.AppendForwardRecord(nil, 7, uint8(wal.RecordIngest), ingestRecord(t, "b"))
	body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, "a"))
	body = client.AppendForwardRecord(body, 2, uint8(wal.RecordForward), nested(0xdef, inner))
	j := &ingestJob{op: opForward, site: 0xabc, image: body, done: make(chan struct{}, 1)}
	if err := svc.validateForward(j); err != nil {
		t.Fatal(err)
	}
	for _, batches := range [][]tenantBatch{j.recs[0].batches, j.recs[1].recs[0].batches} {
		for i := range batches {
			batches[i].tuples = batches[i].tuples[:10]
		}
	}
	svc.commitGroup([]*ingestJob{j})
	if a, b := svc.tenantByName("a").eng.Count(), svc.tenantByName("b").eng.Count(); j.kind != ingestOK || a != 10 || b != 10 {
		t.Fatalf("tenants a and b hold %d and %d tuples (kind %d); want 10 each, what admission's batches were cut to", a, b, j.kind)
	}
}
