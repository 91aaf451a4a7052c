package tupleio

import (
	"errors"
	"reflect"
	"testing"

	"github.com/streamagg/correlated/internal/core"
)

func TestRoundTrip(t *testing.T) {
	batch := []core.Tuple{
		{X: 0, Y: 0, W: 1},
		{X: 1 << 60, Y: 1<<32 - 1, W: 1<<62 + 3},
		{X: 7, Y: 9}, // zero weight normalizes to 1
		{X: 1, Y: 2, W: -5},
	}
	buf := AppendBatch(nil, batch)
	got, err := DecodeCounted(nil, Counted(buf))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Tuple{
		{X: 0, Y: 0, W: 1},
		{X: 1 << 60, Y: 1<<32 - 1, W: 1<<62 + 3},
		{X: 7, Y: 9, W: 1},
		{X: 1, Y: 2, W: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %v want %v", got, want)
	}
	// DecodeCounted reuses dst capacity.
	reused, err := DecodeCounted(got, Counted(nil))
	if err != nil || len(reused) != 0 {
		t.Fatalf("empty stream: %v len=%d", err, len(reused))
	}
}

func TestDecodeRejectsPartialRecords(t *testing.T) {
	buf := AppendTuple(nil, 5, 6, 7)
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeCounted(nil, Counted(buf[:cut:cut])); !errors.Is(err, ErrBadStream) {
			t.Fatalf("cut=%d: %v", cut, err)
		}
	}
	// Unterminated uvarint (ten continuation bytes).
	bad := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}
	if _, err := DecodeCounted(nil, Counted(bad)); !errors.Is(err, ErrBadStream) {
		t.Fatalf("unterminated uvarint: %v", err)
	}
}

func TestDecodeRejectsOverflowWeight(t *testing.T) {
	var buf []byte
	buf = appendRaw(buf, 1)
	buf = appendRaw(buf, 2)
	buf = appendRaw(buf, 1<<63) // does not fit int64
	if _, err := DecodeCounted(nil, Counted(buf)); !errors.Is(err, ErrBadStream) {
		t.Fatalf("overflow weight: %v", err)
	}
}

func appendRaw(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// TestCountedRoundTrip: the counted form decodes back to the same batch
// and reuses dst capacity.
func TestCountedRoundTrip(t *testing.T) {
	batch := []core.Tuple{
		{X: 1, Y: 2, W: 3},
		{X: 1 << 40, Y: 1 << 19, W: 1},
		{X: 0, Y: 0, W: 1},
	}
	buf := AppendCountedBatch(nil, batch)
	got, err := DecodeCounted(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("counted round trip: got %v want %v", got, batch)
	}
	// Empty batch round-trips too.
	empty, err := DecodeCounted(got, AppendCountedBatch(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty counted batch: %v len=%d", err, len(empty))
	}
}

// TestCountedAdversarialHeader is the regression test for decode-side
// pre-allocation: a header claiming a huge tuple count over a tiny body
// must be rejected up front, without allocating storage proportional to
// the claim.
func TestCountedAdversarialHeader(t *testing.T) {
	hostile := appendRaw(nil, 1<<40) // claims 2^40 tuples
	hostile = append(hostile, 1, 2, 3)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeCounted(nil, hostile); !errors.Is(err, ErrBadStream) {
			t.Fatalf("hostile header accepted: %v", err)
		}
	})
	// The only allocations allowed are the error values themselves.
	if allocs > 8 {
		t.Fatalf("hostile header cost %.0f allocs", allocs)
	}

	// A claim past MaxDecodeTuples is rejected even with a plausible body.
	overCap := appendRaw(nil, MaxDecodeTuples+1)
	overCap = append(overCap, make([]byte, 64)...)
	if _, err := DecodeCounted(nil, overCap); !errors.Is(err, ErrBadStream) {
		t.Fatalf("over-cap header accepted: %v", err)
	}

	// A count that disagrees with the records is an error both ways.
	two := AppendBatch(appendRaw(nil, 2), []core.Tuple{{X: 1, Y: 1, W: 1}})
	if _, err := DecodeCounted(nil, two); !errors.Is(err, ErrBadStream) {
		t.Fatalf("undercounted body accepted: %v", err)
	}
	one := AppendBatch(appendRaw(nil, 1), []core.Tuple{{X: 1, Y: 1, W: 1}, {X: 2, Y: 2, W: 2}})
	if _, err := DecodeCounted(nil, one); !errors.Is(err, ErrBadStream) {
		t.Fatalf("overcounted body accepted: %v", err)
	}

	// Truncated header.
	if _, err := DecodeCounted(nil, []byte{0x80}); !errors.Is(err, ErrBadStream) {
		t.Fatalf("truncated header accepted: %v", err)
	}
}

// TestDecodeCountedPrefix: a buffer of concatenated counted batches —
// the WAL's group-commit record body — decodes member by member, each
// call returning exactly the remainder.
func TestDecodeCountedPrefix(t *testing.T) {
	batches := [][]core.Tuple{
		{{X: 1, Y: 2, W: 3}, {X: 4, Y: 5, W: 1}},
		{}, // an empty member is legal (an empty ingest body)
		{{X: 1 << 40, Y: 7, W: 9}},
	}
	var buf []byte
	for _, b := range batches {
		buf = AppendCountedBatch(buf, b)
	}
	rest := buf
	var dst []core.Tuple
	for i, want := range batches {
		var err error
		dst, rest, err = DecodeCountedPrefix(dst, rest)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if len(dst) != len(want) {
			t.Fatalf("member %d: %d tuples, want %d", i, len(dst), len(want))
		}
		for j := range want {
			if dst[j] != want[j] {
				t.Fatalf("member %d tuple %d: %+v want %+v", i, j, dst[j], want[j])
			}
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last member", len(rest))
	}
}

// TestDecodeCountedPrefixAdversarial: the prefix decoder enforces the
// same hostile-header bounds as DecodeCounted.
func TestDecodeCountedPrefixAdversarial(t *testing.T) {
	// Header claims 2^40 tuples over a tiny body.
	huge := make([]byte, 0, 16)
	huge = appendUvarint(huge, 1<<40)
	huge = append(huge, 1, 2, 3)
	if _, _, err := DecodeCountedPrefix(nil, huge); !errors.Is(err, ErrBadStream) {
		t.Fatalf("hostile count header: %v", err)
	}
	// Truncated mid-member: the second tuple is missing bytes.
	var good []core.Tuple
	good = append(good, core.Tuple{X: 300, Y: 300, W: 300})
	buf := AppendCountedBatch(nil, append(good, core.Tuple{X: 1, Y: 1, W: 1}))
	if _, _, err := DecodeCountedPrefix(nil, buf[:len(buf)-1]); !errors.Is(err, ErrBadStream) {
		t.Fatalf("truncated member: %v", err)
	}
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// FuzzMemberForms: the three ways corrd reads an ingest member agree with
// the decoders they stand beside. CheckCounted accepts exactly what
// DecodeCounted accepts with every y at most the bound, and counts it;
// AppendCounted appends what DecodeCounted decodes and leaves dst as it was
// when it refuses; and Counted makes of a headerless run a counted batch
// that decodes to the run read record by record (decodeRun), accepting and
// refusing the same inputs.
func FuzzMemberForms(f *testing.F) {
	batch := []core.Tuple{{X: 1, Y: 2, W: 3}, {X: 1 << 40, Y: 900, W: 1}, {X: 5, Y: 0}}
	f.Add(AppendCountedBatch(nil, batch), uint64(1000))
	f.Add(AppendCountedBatch(nil, batch), uint64(899))
	f.Add(AppendBatch(nil, batch), uint64(1000))
	f.Add(AppendBatch(nil, batch)[:5], uint64(1000))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, uint64(1))
	f.Add(append(AppendCountedBatch(nil, batch), 0), uint64(1000))
	f.Fuzz(func(t *testing.T, data []byte, ymax uint64) {
		want, derr := DecodeCounted(nil, data)
		n, cerr := CheckCounted(data, ymax)
		inRange := true
		for _, tu := range want {
			inRange = inRange && tu.Y <= ymax
		}
		if (cerr == nil) != (derr == nil && inRange) || (cerr == nil && n != len(want)) {
			t.Fatalf("CheckCounted: %d, %v; DecodeCounted: %d tuples, %v, all y <= %d: %t", n, cerr, len(want), derr, ymax, inRange)
		}
		prefix := []core.Tuple{{X: 9, Y: 9, W: 9}}
		got, aerr := AppendCounted(prefix, data)
		if (aerr == nil) != (derr == nil) || !reflect.DeepEqual(got[1:], append([]core.Tuple{}, want...)) || got[0] != prefix[0] {
			t.Fatalf("AppendCounted: %v, %v; DecodeCounted: %v, %v", got, aerr, want, derr)
		}
		run, rerr := decodeRun(data)
		counted, err := DecodeCounted(nil, Counted(append([]byte(nil), data...)))
		if (err == nil) != (rerr == nil) || (err == nil && !reflect.DeepEqual(counted, run)) {
			t.Fatalf("Counted then DecodeCounted: %v, %v; the run record by record: %v, %v", counted, err, run, rerr)
		}
	})
}

// decodeRun decodes a run of records with no count, as an HTTP body
// carries them, one record at a time: what Counted's batch decodes to.
func decodeRun(data []byte) (run []core.Tuple, err error) {
	for len(data) > 0 {
		var t core.Tuple
		if t, data, err = decodeRecord(data, len(run)); err != nil {
			return nil, err
		}
		run = append(run, t)
	}
	return run, nil
}

// TestCheckCountedAllocatesNothing: admission reads a member without keeping
// its tuples, so checking one allocates nothing.
func TestCheckCountedAllocatesNothing(t *testing.T) {
	batch := make([]core.Tuple, 256)
	for i := range batch {
		batch[i] = core.Tuple{X: uint64(i * 7919), Y: uint64(i), W: 1}
	}
	data := AppendCountedBatch(nil, batch)
	if allocs := testing.AllocsPerRun(20, func() {
		if n, err := CheckCounted(data, 1<<20); err != nil || n != len(batch) {
			t.Fatalf("CheckCounted: %d, %v", n, err)
		}
	}); allocs != 0 {
		t.Fatalf("CheckCounted allocates %.1f times; want none", allocs)
	}
}
