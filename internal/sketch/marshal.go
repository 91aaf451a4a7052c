package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary serialization for sketches. Hash functions are never serialized:
// they are a deterministic function of the Maker's construction seed, so a
// sketch deserializes into an instance freshly created by an identically
// configured Maker. Each sketch implements encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler; UnmarshalBinary must be called on a sketch
// from the same Maker configuration that produced the bytes.
//
// The format is versioned, little-endian, varint-based:
// [1 version] [payload...].

// Version 2: bucket/sign placement switched from modulo to Lemire
// multiply-shift reduction, so counters serialized by version 1 would
// decode into incompatible slot mappings.
const marshalVersion = 2

// ErrBadEncoding reports malformed or incompatible serialized bytes.
var ErrBadEncoding = errors.New("sketch: bad or incompatible encoding")

func appendHeader(buf []byte, kind byte) []byte {
	return append(buf, marshalVersion, kind)
}

func readHeader(data []byte, kind byte) ([]byte, error) {
	if len(data) < 2 || data[0] != marshalVersion || data[1] != kind {
		return nil, ErrBadEncoding
	}
	return data[2:], nil
}

func appendI64(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func readI64(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, ErrBadEncoding
	}
	return v, data[n:], nil
}

func appendU64(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func readU64(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrBadEncoding
	}
	return v, data[n:], nil
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func readF64(data []byte) (float64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, ErrBadEncoding
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
}

// Kind bytes for the framed encodings.
const (
	kindCounter     = 1
	kindCountSketch = 2
	kindCountMin    = 3
	kindKMV         = 4
	kindL1          = 5
	kindFk          = 6
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *counter) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, kindCounter)
	if c.sum {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendI64(buf, c.total), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *counter) UnmarshalBinary(data []byte) error {
	rest, err := readHeader(data, kindCounter)
	if err != nil {
		return err
	}
	if len(rest) < 1 || (rest[0] == 1) != c.sum {
		return ErrBadEncoding
	}
	c.total, _, err = readI64(rest[1:])
	return err
}

// MarshalBinary implements encoding.BinaryMarshaler. The image is the
// dense one — every counter in index order — whichever form holds them, so
// equal counters give equal bytes. The state it encodes is untouched, but
// a dense sketch found to hold no more than sparseMax nonzero counters is
// demoted on the way out: afterwards Size equals that of the decoded copy.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	data := c.densified()
	// One byte per counter is the floor, and most counters are small.
	buf := appendHeader(make([]byte, 0, 2*binary.MaxVarintLen64+2+len(data)), kindCountSketch)
	buf = appendU64(buf, uint64(c.maker.depth))
	buf = appendU64(buf, uint64(c.maker.width))
	nonzero := 0
	for _, v := range data {
		buf = appendI64(buf, v)
		if v != 0 {
			nonzero++
		}
	}
	c.undensify()
	if c.mode != modeSparse && nonzero <= c.maker.sparseMax {
		c.demote()
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// come from a Maker with the same geometry and seed as the source. The
// restored form follows the number of nonzero counters, as the live one
// does, so Size depends on the counter values alone. A first pass over the
// payload counts them, which lets the decode go straight into a dense
// array or a table of the right size instead of growing through both.
func (c *CountSketch) UnmarshalBinary(data []byte) error {
	rest, err := readHeader(data, kindCountSketch)
	if err != nil {
		return err
	}
	var d, w uint64
	if d, rest, err = readU64(rest); err != nil {
		return err
	}
	if w, rest, err = readU64(rest); err != nil {
		return err
	}
	m := c.maker
	if int(d) != m.depth || int(w) != m.width {
		return fmt.Errorf("%w: geometry %dx%d vs %dx%d",
			ErrBadEncoding, d, w, m.depth, m.width)
	}
	c.Reset()
	if expect := countNonzeroVarints(rest, m.depth*m.width); expect > m.sparseMax {
		c.promote()
	} else {
		c.resize(expect)
	}
	nonzero := 0
	for i := 0; i < m.depth; i++ {
		var f2 float64
		for j := 0; j < m.width; j++ {
			if len(rest) > 0 && rest[0] == 0 {
				rest = rest[1:] // most counters: zero, in its one-byte form
				continue
			}
			var v int64
			if v, rest, err = readI64(rest); err != nil {
				return err
			}
			if v == 0 {
				continue
			}
			nonzero++
			if c.mode == modeSparse {
				c.sparseAdd(m.key(i, j), v)
			} else {
				c.data[i*m.width+j] = v
			}
			f2 += float64(v) * float64(v)
		}
		c.rowF2[i] = f2
	}
	if c.mode != modeSparse && nonzero <= m.sparseMax {
		c.demote() // the first pass was misled by a zero encoded long
	}
	c.settle()
	return nil
}

// countNonzeroVarints returns how many of the first n varints in data are
// not the single byte 0x00. Every nonzero value is counted; so is a zero in
// a padded encoding, which MarshalBinary never emits.
func countNonzeroVarints(data []byte, n int) int {
	nonzero := 0
	for pos := 0; n > 0 && pos < len(data); n-- {
		if data[pos] != 0 {
			nonzero++
		}
		for pos < len(data) && data[pos]&0x80 != 0 {
			pos++
		}
		pos++
	}
	return nonzero
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, kindCountMin)
	buf = appendU64(buf, uint64(c.maker.depth))
	buf = appendU64(buf, uint64(c.maker.width))
	buf = appendI64(buf, c.total)
	for _, row := range c.rows {
		for _, v := range row {
			buf = appendI64(buf, v)
		}
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *CountMin) UnmarshalBinary(data []byte) error {
	rest, err := readHeader(data, kindCountMin)
	if err != nil {
		return err
	}
	var d, w uint64
	if d, rest, err = readU64(rest); err != nil {
		return err
	}
	if w, rest, err = readU64(rest); err != nil {
		return err
	}
	if int(d) != c.maker.depth || int(w) != c.maker.width {
		return ErrBadEncoding
	}
	if c.total, rest, err = readI64(rest); err != nil {
		return err
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			if c.rows[i][j], rest, err = readI64(rest); err != nil {
				return err
			}
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *KMV) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, kindKMV)
	buf = appendU64(buf, uint64(len(s.reps)))
	for i := range s.reps {
		buf = appendU64(buf, uint64(len(s.reps[i].vals)))
		for _, h := range s.reps[i].vals {
			buf = appendU64(buf, h)
		}
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *KMV) UnmarshalBinary(data []byte) error {
	rest, err := readHeader(data, kindKMV)
	if err != nil {
		return err
	}
	var reps uint64
	if reps, rest, err = readU64(rest); err != nil {
		return err
	}
	if int(reps) != len(s.reps) {
		return ErrBadEncoding
	}
	for i := range s.reps {
		var n uint64
		if n, rest, err = readU64(rest); err != nil {
			return err
		}
		// Each value costs at least one byte of payload; bounding the
		// count before the pre-size keeps a forged count from forcing a
		// giant allocation.
		if n > uint64(len(rest)) {
			return ErrBadEncoding
		}
		r := &s.reps[i]
		r.vals = r.vals[:0]
		r.seen = make(map[uint64]struct{}, n)
		for j := uint64(0); j < n; j++ {
			var h uint64
			if h, rest, err = readU64(rest); err != nil {
				return err
			}
			r.vals = append(r.vals, h)
			r.seen[h] = struct{}{}
		}
		// The serialized order is heap order, which round-trips as-is.
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *L1) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, kindL1)
	buf = appendU64(buf, uint64(len(s.cnt)))
	for _, v := range s.cnt {
		buf = appendF64(buf, v)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *L1) UnmarshalBinary(data []byte) error {
	rest, err := readHeader(data, kindL1)
	if err != nil {
		return err
	}
	var k uint64
	if k, rest, err = readU64(rest); err != nil {
		return err
	}
	if int(k) != len(s.cnt) {
		return ErrBadEncoding
	}
	for i := range s.cnt {
		if s.cnt[i], rest, err = readF64(rest); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *Fk) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, kindFk)
	buf = appendU64(buf, uint64(len(f.levels)))
	for j := range f.levels {
		lv := &f.levels[j]
		if lv.cs == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		cs, err := lv.cs.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = appendU64(buf, uint64(len(cs)))
		buf = append(buf, cs...)
		// Ascending x order keeps the encoding canonical (same state,
		// same bytes), which engine snapshot round-trips rely on.
		buf = appendU64(buf, uint64(len(lv.cand)))
		xs := make([]uint64, 0, len(lv.cand))
		for x := range lv.cand {
			xs = append(xs, x)
		}
		slices.Sort(xs)
		for _, x := range xs {
			buf = appendU64(buf, x)
			buf = appendI64(buf, lv.cand[x])
		}
		if lv.evicted {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendI64(buf, lv.untracked)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *Fk) UnmarshalBinary(data []byte) error {
	rest, err := readHeader(data, kindFk)
	if err != nil {
		return err
	}
	var levels uint64
	if levels, rest, err = readU64(rest); err != nil {
		return err
	}
	if int(levels) != len(f.levels) {
		return ErrBadEncoding
	}
	for j := range f.levels {
		if len(rest) < 1 {
			return ErrBadEncoding
		}
		present := rest[0] == 1
		rest = rest[1:]
		lv := &f.levels[j]
		if !present {
			lv.cs, lv.cand, lv.evicted = nil, nil, false
			lv.running, lv.untracked = 0, 0
			continue
		}
		f.levels[j] = fkLevel{}
		lv = f.ensure(j)
		var csLen uint64
		if csLen, rest, err = readU64(rest); err != nil {
			return err
		}
		if uint64(len(rest)) < csLen {
			return ErrBadEncoding
		}
		if err = lv.cs.UnmarshalBinary(rest[:csLen]); err != nil {
			return err
		}
		rest = rest[csLen:]
		var nc uint64
		if nc, rest, err = readU64(rest); err != nil {
			return err
		}
		lv.running = 0
		for i := uint64(0); i < nc; i++ {
			var x uint64
			var c int64
			if x, rest, err = readU64(rest); err != nil {
				return err
			}
			if c, rest, err = readI64(rest); err != nil {
				return err
			}
			lv.cand[x] = c
			lv.running += f.maker.powK(float64(c))
		}
		if len(rest) < 1 {
			return ErrBadEncoding
		}
		lv.evicted = rest[0] == 1
		rest = rest[1:]
		if lv.untracked, rest, err = readI64(rest); err != nil {
			return err
		}
	}
	return nil
}
