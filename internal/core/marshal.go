package core

import (
	"encoding"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/sketch"
)

// Binary serialization of the correlated-aggregate summary, for
// checkpointing a stream processor or shipping a summary to a query node.
// Hash functions are NOT serialized: UnmarshalBinary must be called on a
// Summary freshly created by NewSummary with the same aggregate and
// Config (including Seed) as the source — the seeds deterministically
// regenerate the sketching functions. The configuration fields that
// determine compatibility (eps, delta, ymax, seed, strict-theory, plus
// the derived alpha and level count) ARE carried in the image and
// validated on decode, so a mismatched restore or merge fails with a
// typed error instead of silently combining incompatible hash functions.

// Version 4: the config block ends with the directions the summary serves,
// the singleton level and every level carry a watermark for each of them,
// each node's flags say which of them keep it, and the levels' bucket
// counts are left to the decoder to count. Version 3 — one direction, the
// root package's GE direction a summary over mirrored y — is refused by
// name.
const coreMarshalVersion = 4

// ErrBadEncoding reports malformed or configuration-incompatible bytes.
var ErrBadEncoding = errors.New("core: bad or incompatible encoding")

// MarshalBinary implements encoding.BinaryMarshaler. It fails if the
// aggregate's sketch type does not support serialization.
func (s *Summary) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.ImageSizeHint()))
}

// ImageSizeHint is a cheap guess at the length of the MarshalBinary image,
// for sizing the buffer AppendBinary appends to: counters are mostly
// one-byte varints and an item pair a few bytes, so images run 1.1–1.4 bytes
// per stored word. Reserving 1.5 up front replaces a multi-megabyte growth
// by doubling with, almost always, one allocation.
func (s *Summary) ImageSizeHint() int {
	space := s.Space()
	return int(space + space/2 + 64)
}

// AppendBinary appends the MarshalBinary image to buf. Sketches encode
// straight into buf, so nothing is allocated per bucket.
func (s *Summary) AppendBinary(buf []byte) ([]byte, error) {
	buf = append(buf, coreMarshalVersion)
	// Config-compatibility block, validated by parse.
	buf = binary.AppendUvarint(buf, math.Float64bits(s.cfg.Eps))
	buf = binary.AppendUvarint(buf, math.Float64bits(s.cfg.Delta))
	buf = binary.AppendUvarint(buf, s.cfg.YMax)
	buf = binary.AppendUvarint(buf, s.cfg.Seed)
	var strict uint64
	if s.cfg.StrictTheory {
		strict = 1
	}
	buf = binary.AppendUvarint(buf, strict)
	buf = binary.AppendUvarint(buf, uint64(s.cfg.Dirs))
	buf = binary.AppendUvarint(buf, s.n)
	buf = binary.AppendUvarint(buf, uint64(s.alpha))
	buf = binary.AppendUvarint(buf, uint64(s.lmax))
	buf = binary.AppendUvarint(buf, uint64(s.virginFrom))
	var err error
	if buf, err = sketch.AppendFramed(buf, s.sketch(s.shared)); err != nil {
		return nil, err
	}
	// Singleton level, in ascending y order: the encoding is canonical
	// (a given state always marshals to the same bytes), which snapshot
	// round-trip contracts rely on. Which directions keep a singleton is
	// what their watermarks say.
	buf = s.appendWatermarks(buf, s.s0.y)
	buf = binary.AppendUvarint(buf, uint64(s.s0.buckets.n))
	ys := make([]uint64, 0, s.s0.buckets.n)
	s.s0.buckets.each(func(y uint64, _ uint32) { ys = append(ys, y) })
	slices.Sort(ys)
	for _, y := range ys {
		buf = binary.AppendUvarint(buf, y)
		if buf, err = sketch.AppendFramed(buf, s.sketch(s.s0.buckets.get(y))); err != nil {
			return nil, err
		}
	}
	// Bucket-tree levels.
	for i := 1; i <= s.lmax; i++ {
		lv := s.levels[i]
		buf = s.appendWatermarks(buf, lv.y)
		if buf, err = s.appendNode(buf, lv.root); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendWatermarks appends the watermarks of the directions served.
func (s *Summary) appendWatermarks(buf []byte, y [2]uint64) []byte {
	for d := range dirs {
		if s.cfg.Dirs&(1<<d) != 0 {
			buf = binary.AppendUvarint(buf, y[d])
		}
	}
	return buf
}

// readSketch decodes one framed sketch into a new slot of the maker's slab
// and returns its handle.
func (s *Summary) readSketch(data []byte) (uint32, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < n {
		return 0, nil, ErrBadEncoding
	}
	h := s.maker.Alloc()
	bs, ok := s.sketch(h).(encoding.BinaryUnmarshaler)
	if !ok {
		s.maker.Free(h)
		return 0, nil, errors.New("core: sketch type does not support serialization")
	}
	if err := bs.UnmarshalBinary(data[sz : sz+int(n)]); err != nil {
		s.maker.Free(h) // with whatever it decoded before the bad byte
		return 0, nil, err
	}
	return h, data[sz+int(n):], nil
}

// Node flags; above them, the directions that keep the node (version 4).
const (
	nodePresent   = 1 << 0
	nodeClosed    = 1 << 1
	nodeHasSk     = 1 << 2
	nodeKeepShift = 3
)

func (s *Summary) appendNode(buf []byte, h uint32) ([]byte, error) {
	if h == 0 {
		return append(buf, 0), nil
	}
	b := s.nodes.At(h)
	flags := byte(nodePresent) | byte(b.keep())<<nodeKeepShift
	if b.isClosed() {
		flags |= nodeClosed
	}
	if b.sk != 0 {
		flags |= nodeHasSk
	}
	buf = append(buf, flags)
	var err error
	if b.sk != 0 {
		if buf, err = sketch.AppendFramed(buf, s.sketch(b.sk)); err != nil {
			return nil, err
		}
	}
	if buf, err = s.appendNode(buf, b.left); err != nil {
		return nil, err
	}
	return s.appendNode(buf, b.right)
}

// owed returns the directions that must keep a bucket spanning iv at level
// lv: those whose watermark lies past its near endpoint, so that it takes
// some y they still want. A split gives its children to the directions that
// take the y it was made for, so none of these can be missing.
func (s *Summary) owed(lv *level, iv dyadic.Interval) Dirs {
	return s.keepers(&lv.y, iv.L)&LE | s.keepers(&lv.y, iv.R)&GE
}

// readNode decodes the subtree spanning iv into the summary's slabs,
// counting its buckets into lv, and returns its root's handle, 0 for an
// absent node. A node may be kept only by directions that keep its parent,
// within.
func (s *Summary) readNode(data []byte, iv dyadic.Interval, lv *level, within Dirs) (uint32, []byte, error) {
	if len(data) < 1 {
		return 0, nil, ErrBadEncoding
	}
	flags := data[0]
	data = data[1:]
	if flags&nodePresent == 0 {
		return 0, data, nil
	}
	keep := Dirs(flags >> nodeKeepShift)
	if keep == 0 || keep&^within != 0 || s.owed(lv, iv)&^keep != 0 {
		return 0, nil, ErrBadEncoding
	}
	h := s.node()
	b := s.nodes.At(h)
	b.setKeep(keep)
	lv.hold(keep, 1)
	if flags&nodeClosed != 0 {
		b.setBudget(closed)
	}
	var err error
	if flags&nodeHasSk != 0 {
		if b.sk, data, err = s.readSketch(data); err != nil {
			s.drop(h)
			return 0, nil, err
		}
		s.compactClosed(b, iv)
	}
	if !iv.Single() {
		lc, rc := iv.Children()
		if b.left, data, err = s.readNode(data, lc, lv, keep); err == nil {
			b.right, data, err = s.readNode(data, rc, lv, keep)
		}
	} else {
		// Single-point intervals are always leaves; consume their two
		// nil child markers.
		for k := 0; k < 2 && err == nil; k++ {
			if len(data) < 1 || data[0] != 0 {
				err = ErrBadEncoding
			} else {
				data = data[1:]
			}
		}
	}
	if err != nil {
		s.freeTree(h) // the part of the subtree decoded before the bad byte
		return 0, nil, err
	}
	return h, data, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// have been created by NewSummary with the same aggregate and Config
// (including Seed) that produced the bytes; the detectable mismatches
// (alpha, level count) are reported as typed incompatibility errors. The
// decode walk is shared with MergeMarshaled, and the receiver is left
// unchanged on error.
func (s *Summary) UnmarshalBinary(data []byte) error {
	in, err := s.parse(data)
	if err != nil {
		return err
	}
	s.install(in)
	return nil
}
