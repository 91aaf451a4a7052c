// Package tupleio is the tuple wire codec shared by the corrd service
// and its client: a batch of (x, y, w) tuples encodes as repeated
// uvarint triples, nothing else — no count prefix, no framing — so a
// body can be produced incrementally and decoded in one pass. Weights
// are encoded as uvarints (the ingest APIs require w > 0; a zero weight
// on the wire decodes to 1, matching Tuple's zero-value convention).
//
// The codec deliberately lives below both the client and service
// packages: the service decodes exactly what the client encodes, and a
// non-Go producer only needs "three uvarints per tuple". That is the
// client wire — HTTP bodies and stream frames, in the client's order.
// What corrd writes to its log and ships to a replica is the sorted batch
// (sorted.go): each tenant's tuples as its one AddBatch took them, y as
// gaps and unit weights elided.
package tupleio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/streamagg/correlated/internal/core"
)

// ContentType is the media type of the binary tuple stream.
const ContentType = "application/x-correlated-tuples"

// ErrBadStream reports a malformed binary tuple stream.
var ErrBadStream = errors.New("tupleio: malformed tuple stream")

// MaxDecodeTuples caps how many tuples Decode will accept in one body:
// a hostile 1-byte-per-tuple stream can claim at most body-length
// tuples, but the cap keeps a decoded batch's memory proportional to a
// sane request size regardless of what the transport allowed.
const MaxDecodeTuples = 1 << 22

// AppendTuple appends one tuple record to buf and returns the extended
// slice. A non-positive weight is encoded as 1.
func AppendTuple(buf []byte, x, y uint64, w int64) []byte {
	if w <= 0 {
		w = 1
	}
	buf = binary.AppendUvarint(buf, x)
	buf = binary.AppendUvarint(buf, y)
	return binary.AppendUvarint(buf, uint64(w))
}

// AppendBatch appends every tuple in batch to buf (zero weights encode
// as 1, matching the ingest APIs' convention).
func AppendBatch(buf []byte, batch []core.Tuple) []byte {
	for _, t := range batch {
		buf = AppendTuple(buf, t.X, t.Y, t.W)
	}
	return buf
}

// minRecordBytes is the smallest possible encoded record: one byte
// each for x, y, and w. It is the unit every decode-side allocation
// bound is derived from — a body of L bytes can hold at most
// L/minRecordBytes records, no matter what any header claims.
const minRecordBytes = 3

// AppendCountedBatch appends the counted form of a batch: a uvarint
// record count followed by the records, exactly as AppendBatch would
// write them. This is the payload of one stream frame; the count header
// lets the decoder size its buffer in one step instead of growing it.
func AppendCountedBatch(buf []byte, batch []core.Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	return AppendBatch(buf, batch)
}

// DecodeCounted parses the counted form produced by AppendCountedBatch
// into dst (reusing its capacity). The pre-allocation derived from the
// count header is bounded by what the body could physically hold
// (len/minRecordBytes) and by MaxDecodeTuples, so a hostile header
// claiming 2^40 records on a 10-byte body is rejected before a single
// byte is allocated — the same hostile-allocation class as the
// map-pre-size DoS bugs fixed in the merge-image decoders. The count
// must match the records exactly: a body holding more or fewer is an
// error.
func DecodeCounted(dst []core.Tuple, data []byte) ([]core.Tuple, error) {
	return AppendCounted(dst[:0], data)
}

// DecodeCountedPrefix parses one counted batch from the front of data
// and returns the remaining bytes: the body of DecodeKeyed, which refuses
// trailing bytes in its own words. The allocation bounds are
// DecodeCounted's.
func DecodeCountedPrefix(dst []core.Tuple, data []byte) (batch []core.Tuple, rest []byte, err error) {
	return appendCountedPrefix(dst[:0], data)
}

// appendCountedPrefix is DecodeCountedPrefix appending to dst, and the body
// of AppendCounted; on an error it returns dst as it was.
func appendCountedPrefix(dst []core.Tuple, data []byte) (batch []core.Tuple, rest []byte, err error) {
	n, data, err := countHeader(data)
	if err != nil {
		return dst, data, err
	}
	dst = slices.Grow(dst, n)
	base := len(dst)
	for len(dst)-base < n {
		t, rest, err := decodeRecord(data, len(dst)-base)
		if err != nil {
			return dst[:base], data, err
		}
		data = rest
		dst = append(dst, t)
	}
	return dst, data, nil
}

// countHeader parses a counted batch's count and bounds it by what the rest
// of data could physically hold and by MaxDecodeTuples, before anything is
// allocated for it.
func countHeader(data []byte) (n int, rest []byte, err error) {
	c, sz := binary.Uvarint(data)
	if sz <= 0 {
		return 0, data, fmt.Errorf("%w: bad count header", ErrBadStream)
	}
	data = data[sz:]
	if c > MaxDecodeTuples {
		return 0, data, fmt.Errorf("%w: header claims %d tuples, cap is %d", ErrBadStream, c, MaxDecodeTuples)
	}
	if c > uint64(len(data)/minRecordBytes) {
		return 0, data, fmt.Errorf("%w: header claims %d tuples, body can hold at most %d",
			ErrBadStream, c, len(data)/minRecordBytes)
	}
	return int(c), data, nil
}

// AppendCounted decodes a complete counted batch, as DecodeCounted does, onto
// the end of dst: a commit group's members decode straight into its one
// buffer. On an error dst is returned as it was.
func AppendCounted(dst []core.Tuple, data []byte) ([]core.Tuple, error) {
	out, rest, err := appendCountedPrefix(dst, data)
	if err == nil && len(rest) != 0 {
		out, err = dst, fmt.Errorf("%w: %d trailing bytes after the counted records", ErrBadStream, len(rest))
	}
	return out, err
}

// CheckCounted decodes a complete counted batch one record at a time and
// keeps none: it accepts exactly what DecodeCounted accepts whose every y is
// at most ymax, and returns the tuple count. It allocates nothing, so a
// batch can be refused, or admitted and held as its bytes, without
// materializing it.
func CheckCounted(data []byte, ymax uint64) (int, error) {
	n, data, err := countHeader(data)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		var t core.Tuple
		if t, data, err = decodeRecord(data, i); err != nil {
			return 0, err
		}
		if t.Y > ymax {
			return 0, fmt.Errorf("tupleio: y = %d at record %d exceeds YMax = %d", t.Y, i, ymax)
		}
	}
	if len(data) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after the counted records", ErrBadStream, len(data))
	}
	return n, nil
}

// Counted turns records — a run of them with no count, as Decode reads an
// HTTP body — into the counted form: the count header, then the records,
// in records' storage when its capacity allows. The count is read off the
// bytes (every uvarint ends on a byte below 0x80, three to a record), so a
// run that is not whole records becomes a counted batch that DecodeCounted
// and CheckCounted refuse, exactly as Decode refuses the run.
func Counted(records []byte) []byte {
	ends := 0
	for _, c := range records {
		if c < 0x80 {
			ends++
		}
	}
	var hdr [binary.MaxVarintLen64]byte
	return slices.Insert(records, 0, binary.AppendUvarint(hdr[:0], uint64(ends/minRecordBytes))...)
}

// decodeRecord parses one x/y/w record — the single implementation of
// the tuple wire grammar shared by every decode entry point, so the
// HTTP-ingest path (Decode) and the stream-frame path
// (DecodeCountedPrefix) can never diverge. idx is the record's position,
// for error messages only.
func decodeRecord(data []byte, idx int) (t core.Tuple, rest []byte, err error) {
	var w uint64
	var n int
	if t.X, n = binary.Uvarint(data); n <= 0 {
		return t, data, fmt.Errorf("%w: bad x at record %d", ErrBadStream, idx)
	}
	data = data[n:]
	if t.Y, n = binary.Uvarint(data); n <= 0 {
		return t, data, fmt.Errorf("%w: bad y at record %d", ErrBadStream, idx)
	}
	data = data[n:]
	if w, n = binary.Uvarint(data); n <= 0 {
		return t, data, fmt.Errorf("%w: bad weight at record %d", ErrBadStream, idx)
	}
	data = data[n:]
	if w > 1<<63-1 {
		return t, data, fmt.Errorf("%w: weight overflows int64 at record %d", ErrBadStream, idx)
	}
	if t.W = int64(w); t.W == 0 {
		t.W = 1
	}
	return t, data, nil
}

// Decode parses a complete binary tuple stream into dst (reusing its
// capacity) and returns the filled slice. The stream must contain only
// whole records; a trailing partial record, a weight that overflows
// int64, or more than MaxDecodeTuples records is an error matching
// ErrBadStream.
func Decode(dst []core.Tuple, data []byte) ([]core.Tuple, error) {
	dst = dst[:0]
	for len(data) > 0 {
		if len(dst) >= MaxDecodeTuples {
			return dst[:0], fmt.Errorf("%w: more than %d tuples in one body", ErrBadStream, MaxDecodeTuples)
		}
		t, rest, err := decodeRecord(data, len(dst))
		if err != nil {
			return dst[:0], err
		}
		data = rest
		dst = append(dst, t)
	}
	return dst, nil
}
