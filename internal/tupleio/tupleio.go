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
	dst, rest, err := DecodeCountedPrefix(dst, data)
	if err != nil {
		return dst, err
	}
	if len(rest) != 0 {
		return dst[:0], fmt.Errorf("%w: %d trailing bytes after the counted records", ErrBadStream, len(rest))
	}
	return dst, nil
}

// DecodeCountedPrefix parses one counted batch from the front of data
// and returns the remaining bytes: the body of DecodeCounted and
// DecodeKeyed, which each refuse trailing bytes in their own words. The
// allocation bounds are DecodeCounted's.
func DecodeCountedPrefix(dst []core.Tuple, data []byte) (batch []core.Tuple, rest []byte, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return dst[:0], data, fmt.Errorf("%w: bad count header", ErrBadStream)
	}
	data = data[sz:]
	if n > MaxDecodeTuples {
		return dst[:0], data, fmt.Errorf("%w: header claims %d tuples, cap is %d", ErrBadStream, n, MaxDecodeTuples)
	}
	if n > uint64(len(data)/minRecordBytes) {
		return dst[:0], data, fmt.Errorf("%w: header claims %d tuples, body can hold at most %d",
			ErrBadStream, n, len(data)/minRecordBytes)
	}
	if uint64(cap(dst)) < n {
		dst = make([]core.Tuple, 0, n)
	}
	dst = dst[:0]
	for uint64(len(dst)) < n {
		t, rest, err := decodeRecord(data, len(dst))
		if err != nil {
			return dst[:0], data, err
		}
		data = rest
		dst = append(dst, t)
	}
	return dst, data, nil
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
