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
//
// Version 3: a CountSketch records its form — its (x, weight) pairs in
// ascending x, or every counter in index order. No other kind's payload
// changed, and a version-2 CountSketch payload (always every counter) still
// decodes, as a dense sketch.
const (
	marshalVersion    = 3
	minMarshalVersion = 2
)

// ErrBadEncoding reports malformed or incompatible serialized bytes.
var ErrBadEncoding = errors.New("sketch: bad or incompatible encoding")

func appendHeader(buf []byte, kind byte) []byte {
	return append(buf, marshalVersion, kind)
}

// readHeader checks the frame and returns its version with the payload.
func readHeader(data []byte, kind byte) (version byte, rest []byte, err error) {
	if len(data) < 2 || data[0] < minMarshalVersion || data[0] > marshalVersion || data[1] != kind {
		return 0, nil, ErrBadEncoding
	}
	return data[0], data[2:], nil
}

// binaryAppender is the append-style encoder every serializable sketch
// offers; MarshalBinary is AppendBinary(nil).
type binaryAppender interface {
	AppendBinary(buf []byte) ([]byte, error)
}

// AppendPrefixed appends a uvarint length (plus bias) and then the payload
// that fill appends, without staging the payload in a buffer of its own:
// room for the longest prefix is reserved, and the payload is moved down
// over what the actual prefix leaves unused.
func AppendPrefixed(buf []byte, bias uint64, fill func([]byte) ([]byte, error)) ([]byte, error) {
	start := len(buf)
	var room [binary.MaxVarintLen64]byte
	buf, err := fill(append(buf, room[:]...))
	if err != nil {
		return nil, err
	}
	payload := buf[start+len(room):]
	k := binary.PutUvarint(room[:], uint64(len(payload))+bias)
	copy(buf[start:], room[:k])
	copy(buf[start+k:], payload)
	return buf[:start+k+len(payload)], nil
}

// AppendFramed appends sk's serialized form behind a uvarint length. It
// fails if the sketch type does not support serialization.
func AppendFramed(buf []byte, sk Sketch) ([]byte, error) {
	ba, ok := sk.(binaryAppender)
	if !ok {
		return nil, errors.New("sketch: sketch type does not support serialization")
	}
	return AppendPrefixed(buf, 0, ba.AppendBinary)
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

// Kind bytes for the framed encodings. 3 and 4 are reserved: images of the
// retired Count-Min and KMV families carry them, and reusing either would
// let such an image decode as something else.
const (
	kindCounter     = 1
	kindCountSketch = 2
	kindL1          = 5
	kindFk          = 6
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *counter) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// AppendBinary appends the MarshalBinary image to buf.
func (c *counter) AppendBinary(buf []byte) ([]byte, error) {
	buf = appendHeader(buf, kindCounter)
	if c.sum {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendI64(buf, c.total), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *counter) UnmarshalBinary(data []byte) error {
	_, rest, err := readHeader(data, kindCounter)
	if err != nil {
		return err
	}
	if len(rest) < 1 || (rest[0] == 1) != c.sum {
		return ErrBadEncoding
	}
	c.total, _, err = readI64(rest[1:])
	return err
}

// The forms a CountSketch image records.
const (
	formItems = 0
	formDense = 1
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	size := 2 * binary.MaxVarintLen64
	if c.dense {
		size += c.maker.depth * c.maker.width // one byte per counter is the floor, and most are small
	} else {
		size += 4 * int(c.n)
	}
	return c.AppendBinary(make([]byte, 0, size))
}

// AppendBinary appends the MarshalBinary image to buf and leaves the sketch
// as it was. The image records the form, so the decoded copy has the live
// sketch's Size, and it is canonical: a dense sketch writes every counter in
// index order and an items-form one its pairs in ascending x, whatever the
// table layout and the order they arrived in — which a cut table already lies
// in, so it is written as it is, with no sort and no probe.
func (c *CountSketch) AppendBinary(buf []byte) ([]byte, error) {
	m := c.maker
	buf = appendHeader(buf, kindCountSketch)
	buf = appendU64(buf, uint64(m.depth))
	buf = appendU64(buf, uint64(m.width))
	if c.dense {
		buf = append(buf, formDense)
		switch c.cw {
		case 1:
			return appendCounters(buf, c.c8), nil
		case 2:
			return appendCounters(buf, c.wide.c16), nil
		default:
			return appendCounters(buf, c.wide.c64), nil
		}
	}
	buf = append(buf, formItems)
	buf = appendU64(buf, uint64(c.n))
	if c.cut() {
		for k := range int(c.n) {
			x, f := c.pairAt(k)
			buf = appendI64(appendU64(buf, x), f)
		}
		return buf, nil
	}
	xs := m.keyScratch[:0]
	for k := range c.slots() {
		if x, f := c.pairAt(k); f != 0 {
			xs = append(xs, x)
		}
	}
	slices.Sort(xs)
	for _, x := range xs {
		_, f := c.probe(x)
		buf = appendI64(appendU64(buf, x), f)
	}
	m.keyScratch = xs
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// come from a Maker with the same geometry and seed as the source; its
// previous contents are replaced. A version-2 image, which predates the
// items form, is every counter in index order and restores dense.
func (c *CountSketch) UnmarshalBinary(data []byte) error {
	version, rest, err := readHeader(data, kindCountSketch)
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
	form := byte(formDense)
	if version >= 3 {
		if len(rest) < 1 {
			return ErrBadEncoding
		}
		form, rest = rest[0], rest[1:]
	}
	c.Reset()
	switch form {
	case formItems:
		rest, err = c.readItems(rest)
	case formDense:
		c.allocDense()
		for j := 0; j < m.depth*m.width; j++ {
			var v int64
			if v, rest, err = readI64(rest); err != nil {
				return err
			}
			c.put(j, v)
		}
		c.sumSquares()
	default:
		return ErrBadEncoding
	}
	if err == nil && len(rest) != 0 {
		err = ErrBadEncoding
	}
	return err
}

// readItems decodes the pairs of an items-form image into the empty
// receiver. Pairs must be what AppendBinary writes — no more than the form
// holds, strictly ascending in x, no zero weight — which bounds the table
// by the geometry and makes decode-then-encode the identity. The table is at
// the lowest rung its pairs fit.
func (c *CountSketch) readItems(rest []byte) ([]byte, error) {
	n, rest, err := readU64(rest)
	if err != nil || n > uint64(c.maker.itemsMax) {
		return nil, ErrBadEncoding
	}
	if n > 0 {
		c.retable(tableFor(int(n)), slot4)
	}
	var prev uint64
	for ; n > 0; n-- {
		var x uint64
		var f int64
		if x, rest, err = readU64(rest); err != nil {
			return nil, err
		}
		if f, rest, err = readI64(rest); err != nil {
			return nil, err
		}
		if f == 0 || (c.n > 0 && x <= prev) {
			return nil, ErrBadEncoding
		}
		j, _ := c.probe(x)
		c.store(j, x, f)
		c.n++
		c.moveF2(0, f)
		prev = x
	}
	return rest, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *L1) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary appends the MarshalBinary image to buf.
func (s *L1) AppendBinary(buf []byte) ([]byte, error) {
	buf = appendHeader(buf, kindL1)
	buf = appendU64(buf, uint64(len(s.cnt)))
	for _, v := range s.cnt {
		buf = appendF64(buf, v)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *L1) UnmarshalBinary(data []byte) error {
	_, rest, err := readHeader(data, kindL1)
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
func (f *Fk) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// AppendBinary appends the MarshalBinary image to buf.
func (f *Fk) AppendBinary(buf []byte) ([]byte, error) {
	buf = appendHeader(buf, kindFk)
	buf = appendU64(buf, uint64(len(f.levels)))
	for j := range f.levels {
		lv := &f.levels[j]
		if lv.cs == nil {
			buf = append(buf, 0)
			continue
		}
		var err error
		if buf, err = AppendFramed(append(buf, 1), lv.cs); err != nil {
			return nil, err
		}
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
	_, rest, err := readHeader(data, kindFk)
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
