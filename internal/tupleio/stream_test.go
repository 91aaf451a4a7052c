package tupleio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/streamagg/correlated/internal/core"
)

func TestHelloRoundTrip(t *testing.T) {
	hello := AppendHello(nil, StreamFormatCounted)
	if len(hello) != HelloSize {
		t.Fatalf("hello is %d bytes, want %d", len(hello), HelloSize)
	}
	version, format, err := ParseHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if version != StreamVersion || format != StreamFormatCounted {
		t.Fatalf("got version=%d format=%d", version, format)
	}

	reply := AppendHelloReply(nil, HelloOK, 1<<20)
	if len(reply) != HelloReplySize {
		t.Fatalf("reply is %d bytes, want %d", len(reply), HelloReplySize)
	}
	status, maxFrame, err := ParseHelloReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if status != HelloOK || maxFrame != 1<<20 {
		t.Fatalf("got status=%d maxFrame=%d", status, maxFrame)
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("XXXX0000"),
		bytes.Repeat([]byte{0}, HelloSize),
		append(AppendHello(nil, StreamFormatCounted), 0), // oversized
	}
	for i, b := range cases {
		if _, _, err := ParseHello(b); !errors.Is(err, ErrBadStream) {
			t.Fatalf("case %d: %v", i, err)
		}
	}
	// The reply parser rejects a client hello (distinct magics).
	if _, _, err := ParseHelloReply(append(AppendHello(nil, 1), 0, 0)); !errors.Is(err, ErrBadStream) {
		t.Fatal("client hello accepted as a reply")
	}
	// And a reply from a future protocol version.
	future := AppendHelloReply(nil, HelloOK, 1)
	future[5] = StreamVersion + 1
	if _, _, err := ParseHelloReply(future); !errors.Is(err, ErrBadStream) {
		t.Fatal("future-version reply accepted")
	}
}

func TestAckRoundTrip(t *testing.T) {
	ack := AppendAck(nil, 42, 1<<40, AckWAL)
	if len(ack) != AckSize {
		t.Fatalf("ack is %d bytes, want %d", len(ack), AckSize)
	}
	seq, lsn, status, err := ParseAck(ack)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || lsn != 1<<40 || status != AckWAL {
		t.Fatalf("got seq=%d lsn=%d status=%d", seq, lsn, status)
	}
	if _, _, _, err := ParseAck(ack[:AckSize-1]); !errors.Is(err, ErrBadStream) {
		t.Fatalf("short ack: %v", err)
	}
}

// TestFrameReaderRoundTrip: frames written back-to-back decode in order,
// reusing the payload buffer, and a clean end of stream is io.EOF.
func TestFrameReaderRoundTrip(t *testing.T) {
	batches := [][]core.Tuple{
		{{X: 1, Y: 2, W: 3}},
		{{X: 9, Y: 8, W: 1}, {X: 1 << 40, Y: 1 << 19, W: 7}},
		{}, // empty batch is a legal (if pointless) frame
	}
	var wire []byte
	for i, b := range batches {
		payload := AppendCountedBatch(nil, b)
		wire = AppendFrameHeader(wire, uint64(i+1), uint32(len(payload)))
		wire = append(wire, payload...)
	}
	fr := NewFrameReader(bytes.NewReader(wire), 1<<20)
	var payload []byte
	var tuples []core.Tuple
	for i, want := range batches {
		seq, out, err := fr.Next(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		payload = out
		if seq != uint64(i+1) {
			t.Fatalf("frame %d: seq %d", i, seq)
		}
		tuples, err = DecodeCounted(tuples, out)
		if err != nil {
			t.Fatalf("frame %d payload: %v", i, err)
		}
		if len(want) == 0 {
			if len(tuples) != 0 {
				t.Fatalf("frame %d: %d tuples, want 0", i, len(tuples))
			}
		} else if !reflect.DeepEqual(tuples, want) {
			t.Fatalf("frame %d: got %v want %v", i, tuples, want)
		}
	}
	if _, _, err := fr.Next(payload); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
}

// TestFrameReaderHostileLength is the adversarial-header regression
// test: a header claiming more than the cap is rejected before any
// payload allocation, whatever giant number it carries.
func TestFrameReaderHostileLength(t *testing.T) {
	for _, claim := range []uint32{1<<20 + 1, 1 << 30, 1<<32 - 1} {
		hdr := AppendFrameHeader(nil, 1, claim)
		fr := NewFrameReader(bytes.NewReader(hdr), 1<<20)
		allocs := testing.AllocsPerRun(5, func() {
			fr := NewFrameReader(bytes.NewReader(hdr), 1<<20)
			if _, _, err := fr.Next(nil); !errors.Is(err, ErrBadStream) {
				t.Fatalf("claim %d accepted: %v", claim, err)
			}
		})
		if allocs > 16 {
			t.Fatalf("hostile claim %d cost %.0f allocs", claim, allocs)
		}
		if _, _, err := fr.Next(nil); !errors.Is(err, ErrBadStream) {
			t.Fatalf("claim %d accepted: %v", claim, err)
		}
	}
	// Zero-length frames are a protocol error too (nothing legal encodes
	// to zero bytes — an empty counted batch still has its count byte).
	fr := NewFrameReader(bytes.NewReader(AppendFrameHeader(nil, 1, 0)), 1<<20)
	if _, _, err := fr.Next(nil); !errors.Is(err, ErrBadStream) {
		t.Fatalf("zero-length frame: %v", err)
	}
}

// TestFrameReaderTruncation: a stream dying mid-header or mid-payload is
// ErrBadStream (not a silent EOF), at every cut point.
func TestFrameReaderTruncation(t *testing.T) {
	payload := AppendCountedBatch(nil, []core.Tuple{{X: 1, Y: 2, W: 3}, {X: 4, Y: 5, W: 6}})
	wire := append(AppendFrameHeader(nil, 7, uint32(len(payload))), payload...)
	for cut := 1; cut < len(wire); cut++ {
		fr := NewFrameReader(bytes.NewReader(wire[:cut]), 1<<20)
		if _, _, err := fr.Next(nil); !errors.Is(err, ErrBadStream) {
			t.Fatalf("cut=%d: %v", cut, err)
		}
	}
}

// FuzzStreamFrame throws hostile bytes at every stream decoder: the
// frame reader (lengths, truncations), the hello/reply parsers, and the
// ack parser. The invariants under fuzzing: no panic, no allocation
// proportional to a claimed length beyond the cap, and every accepted
// frame payload re-encodes to the same bytes through the counted codec.
func FuzzStreamFrame(f *testing.F) {
	seed := func(b []byte) { f.Add(b) }
	seed(AppendHello(nil, StreamFormatCounted))
	seed(AppendHello(nil, StreamFormatKeyed))
	seed(AppendHelloReply(nil, HelloOK, 1<<20))
	seed(AppendAck(nil, 1, 2, AckOK))
	seed(AppendAck(nil, 1, 0, AckTenant))
	payload := AppendCountedBatch(nil, []core.Tuple{{X: 1, Y: 2, W: 3}})
	seed(append(AppendFrameHeader(nil, 1, uint32(len(payload))), payload...))
	seed(AppendFrameHeader(nil, 1, 1<<31)) // hostile claim
	seed([]byte{})
	// Keyed (tenant-tagged) frames: a valid one, a key at the length
	// cap, a truncated key, and a key length claiming past the payload.
	keyed := AppendKeyedBatch(nil, "fuzz-tenant", []core.Tuple{{X: 1, Y: 2, W: 3}})
	seed(append(AppendFrameHeader(nil, 1, uint32(len(keyed))), keyed...))
	maxKey := AppendKeyedBatch(nil, strings.Repeat("k", MaxTenantLen), []core.Tuple{{X: 4, Y: 5, W: 1}})
	seed(append(AppendFrameHeader(nil, 1, uint32(len(maxKey))), maxKey...))
	cutKey := keyed[:4] // mid-tenant truncation
	seed(append(AppendFrameHeader(nil, 1, uint32(len(cutKey))), cutKey...))
	hostileKey := binary.AppendUvarint(nil, 1<<30)
	seed(append(AppendFrameHeader(nil, 1, uint32(len(hostileKey))), hostileKey...))
	// What a peer of the retired replication format sends — its hello, a
	// start request (one sane, one with a hostile LSN, one truncated), and
	// its frames: a record, a heartbeat, a snapshot, a torn snapshot, an
	// unknown kind — is refused or read as plain frames, never a panic.
	seed(AppendHello(nil, 7))
	start := binary.LittleEndian.AppendUint64([]byte("CRP1"), 42)
	seed(start)
	seed(append([]byte("CRP1"), bytes.Repeat([]byte{0xFF}, 8)...))
	seed(start[:7])
	record := append([]byte{1, 1}, payload...)
	seed(append(AppendFrameHeader(nil, 3, uint32(len(record))), record...))
	seed(append(AppendFrameHeader(nil, 9, 1), 3))
	snap := append([]byte{2}, bytes.Repeat([]byte{0xCF}, 96)...)
	seed(append(AppendFrameHeader(nil, 5, uint32(len(snap))), snap...))
	seed(append(AppendFrameHeader(nil, 5, uint32(len(snap))), snap[:len(snap)/2]...))
	seed(append(AppendFrameHeader(nil, 1, 2), 0xFF, 0x01))

	const frameCap = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		// Hello / reply / ack parsers must never panic and must reject
		// anything that is not exactly their wire size.
		if len(data) >= HelloSize {
			ParseHello(data[:HelloSize])
		}
		if len(data) >= HelloReplySize {
			ParseHelloReply(data[:HelloReplySize])
		}
		if len(data) >= AckSize {
			ParseAck(data[:AckSize])
		}

		// The frame reader over the raw bytes: walk frames until error.
		// Any accepted frame's length must be within the cap (the
		// pre-allocation bound), and a payload the counted decoder
		// accepts must round-trip stably: re-encoding the decoded batch
		// and decoding again yields the same tuples. (Byte equality is
		// deliberately not asserted — the decoder normalizes zero
		// weights and tolerates non-minimal uvarints.)
		fr := NewFrameReader(bytes.NewReader(data), frameCap)
		var buf []byte
		var tuples []core.Tuple
		for {
			_, out, err := fr.Next(buf)
			if err != nil {
				break
			}
			buf = out
			if len(out) == 0 || len(out) > frameCap {
				t.Fatalf("accepted frame of %d bytes (cap %d)", len(out), frameCap)
			}
			// A payload the keyed decoder accepts must round-trip: the
			// key and tuples re-encode to bytes the decoder accepts
			// with the same key and count.
			if name, ktuples, kerr := DecodeKeyed(nil, out); kerr == nil {
				re := AppendKeyedBatch(nil, string(name), ktuples)
				name2, again, err := DecodeKeyed(nil, re)
				if err != nil {
					t.Fatalf("re-encoded keyed payload rejected: %v", err)
				}
				if !bytes.Equal(name, name2) || len(again) != len(ktuples) {
					t.Fatalf("keyed round trip changed key/count: %q/%d -> %q/%d",
						name, len(ktuples), name2, len(again))
				}
			}
			var derr error
			tuples, derr = DecodeCounted(tuples, out)
			if derr == nil {
				re := AppendCountedBatch(nil, tuples)
				again, err := DecodeCounted(nil, re)
				if err != nil {
					t.Fatalf("re-encoded payload rejected: %v", err)
				}
				if len(again) != len(tuples) {
					t.Fatalf("round trip changed count: %d -> %d", len(tuples), len(again))
				}
				for i := range tuples {
					if again[i] != tuples[i] {
						t.Fatalf("round trip changed tuple %d: %+v -> %+v", i, tuples[i], again[i])
					}
				}
			}
		}

		// A length patched over the cap must be rejected without reading
		// payload bytes.
		if len(data) >= FrameHeaderSize {
			hostile := bytes.Clone(data[:FrameHeaderSize])
			binary.LittleEndian.PutUint32(hostile[0:4], frameCap+1)
			fr := NewFrameReader(bytes.NewReader(hostile), frameCap)
			if _, _, err := fr.Next(nil); !errors.Is(err, ErrBadStream) {
				t.Fatalf("over-cap length accepted: %v", err)
			}
		}
	})
}
