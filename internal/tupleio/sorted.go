package tupleio

// The sorted batch: the member of a WAL ingest record, which is also what a
// primary ships to a replica. A record holds one member per tenant its
// commit group touched, and a member is the argument of the one AddBatch
// that tenant got — already sorted by y, so y travels as the gap to the row
// before it and a weight only when some weight is not 1:
//
//	member   uvarint(len(tenant)) tenant
//	         uvarint(count)
//	         count × ( uvarint(y − previous y)  uvarint(x) )     previous y starts at 0
//	         flag    0: every weight is 1
//	                 1: count × uvarint(weight) follow, in row order
//
// The rows keep the batch's order exactly, equal-y runs included: the order
// inside a run is part of what a summary's state is a function of
// (core.SortByY). The form is canonical — one byte string per batch — so the
// decoder refuses what the encoder never writes: a padded uvarint, a flag
// other than 0 or 1, flag 1 over weights that are all 1, a weight of 0.
// Hostile-input discipline is the rest of the codec's: the count is checked
// against MaxDecodeTuples and against what the bytes behind it could hold
// (a row is at least two bytes) before anything is allocated, y may not
// wrap, a weight must fit int64, and the tenant key aliases the input.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/streamagg/correlated/internal/core"
)

// ErrUnsorted reports a batch handed to AppendSortedBatch that is not
// non-decreasing in y: the gap to the previous row would have wrapped.
var ErrUnsorted = errors.New("tupleio: batch is not sorted by y")

// minRowBytes is the smallest encoded row: one byte each for the y gap and
// x. A body of L bytes holds at most L/minRowBytes rows whatever its count
// claims.
const minRowBytes = 2

// AppendSortedBatch appends tenant's sorted batch to buf. The batch must be
// non-decreasing in y (core.SortByY leaves it so); one that is not is
// refused with ErrUnsorted and buf comes back as it was given. A
// non-positive weight is written as 1, as everywhere in the codec.
func AppendSortedBatch(buf []byte, tenant string, batch []core.Tuple) ([]byte, error) {
	start := len(buf)
	buf = AppendTenant(buf, tenant)
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	var prev uint64
	unit := true
	for i := range batch {
		t := &batch[i]
		if t.Y < prev {
			return buf[:start], fmt.Errorf("%w: y = %d follows y = %d at row %d", ErrUnsorted, t.Y, prev, i)
		}
		buf = binary.AppendUvarint(buf, t.Y-prev)
		buf = binary.AppendUvarint(buf, t.X)
		prev = t.Y
		unit = unit && t.W <= 1
	}
	if unit {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	for i := range batch {
		w := batch[i].W
		if w <= 0 {
			w = 1
		}
		buf = binary.AppendUvarint(buf, uint64(w))
	}
	return buf, nil
}

// uvarint reads one uvarint in its shortest form; n <= 0 reports a
// truncated, overlong or padded one.
func uvarint(data []byte) (v uint64, n int) {
	if len(data) > 0 && data[0] < 0x80 {
		return uint64(data[0]), 1
	}
	if v, n = binary.Uvarint(data); n > 1 && data[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// DecodeSortedBatch parses one member from the front of data into dst
// (reusing its capacity): the tenant key (aliasing data — copy to keep), the
// batch, non-decreasing in y, and the bytes after the member, which are the
// caller's — a record decodes member by member. Every accepted member is
// one AppendSortedBatch wrote: re-encoding the result gives back the bytes
// consumed.
func DecodeSortedBatch(dst []core.Tuple, data []byte) (tenant []byte, batch []core.Tuple, rest []byte, err error) {
	bad := func(format string, a ...any) ([]byte, []core.Tuple, []byte, error) {
		return nil, dst[:0], data, fmt.Errorf("%w: sorted batch: %s", ErrBadStream, fmt.Sprintf(format, a...))
	}
	head := data
	if tenant, data, err = DecodeTenantPrefix(data); err != nil {
		return nil, dst[:0], data, err
	}
	if sz := len(head) - len(data) - len(tenant); sz > 1 && head[sz-1] == 0 {
		return bad("padded tenant length")
	}
	n, sz := uvarint(data)
	if sz <= 0 {
		return bad("bad count")
	}
	data = data[sz:]
	if n > MaxDecodeTuples {
		return bad("count claims %d tuples, cap is %d", n, MaxDecodeTuples)
	}
	if n > uint64(len(data)/minRowBytes) {
		return bad("count claims %d tuples, body can hold at most %d", n, len(data)/minRowBytes)
	}
	if uint64(cap(dst)) < n {
		dst = make([]core.Tuple, 0, n)
	}
	dst = dst[:0]
	var y uint64
	for uint64(len(dst)) < n {
		gap, sz := uvarint(data)
		if sz <= 0 {
			return bad("bad y gap at row %d", len(dst))
		}
		data = data[sz:]
		if gap > math.MaxUint64-y {
			return bad("y wraps at row %d", len(dst))
		}
		y += gap
		x, sz := uvarint(data)
		if sz <= 0 {
			return bad("bad x at row %d", len(dst))
		}
		data = data[sz:]
		dst = append(dst, core.Tuple{X: x, Y: y, W: 1})
	}
	if len(data) == 0 {
		return bad("no weight flag")
	}
	flag := data[0]
	data = data[1:]
	switch flag {
	case 0:
	case 1:
		unit := true
		for i := range dst {
			w, sz := uvarint(data)
			if sz <= 0 {
				return bad("bad weight at row %d", i)
			}
			data = data[sz:]
			if w == 0 || w > math.MaxInt64 {
				return bad("weight %d at row %d is outside 1…MaxInt64", w, i)
			}
			dst[i].W = int64(w)
			unit = unit && w == 1
		}
		if unit {
			return bad("weights listed though every one is 1")
		}
	default:
		return bad("unknown weight flag %d", flag)
	}
	return tenant, dst, data, nil
}
