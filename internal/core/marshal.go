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

// Version 3: a config-compatibility block follows the version byte.
// (Version 2 changed the embedded sketch payloads' hash-to-bucket
// mapping; see sketch.marshalVersion.)
const coreMarshalVersion = 3

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
	// Config-compatibility block, validated by ParseMergeImage.
	buf = binary.AppendUvarint(buf, math.Float64bits(s.cfg.Eps))
	buf = binary.AppendUvarint(buf, math.Float64bits(s.cfg.Delta))
	buf = binary.AppendUvarint(buf, s.cfg.YMax)
	buf = binary.AppendUvarint(buf, s.cfg.Seed)
	var strict uint64
	if s.cfg.StrictTheory {
		strict = 1
	}
	buf = binary.AppendUvarint(buf, strict)
	buf = binary.AppendUvarint(buf, s.n)
	buf = binary.AppendUvarint(buf, uint64(s.alpha))
	buf = binary.AppendUvarint(buf, uint64(s.lmax))
	buf = binary.AppendUvarint(buf, uint64(s.virginFrom))
	var err error
	if buf, err = sketch.AppendFramed(buf, s.shared); err != nil {
		return nil, err
	}
	// Singleton level, in ascending y order: the encoding is canonical
	// (a given state always marshals to the same bytes), which snapshot
	// round-trip contracts rely on.
	buf = binary.AppendUvarint(buf, s.s0.y)
	buf = binary.AppendUvarint(buf, uint64(len(s.s0.buckets)))
	ys := make([]uint64, 0, len(s.s0.buckets))
	for y := range s.s0.buckets {
		ys = append(ys, y)
	}
	slices.Sort(ys)
	for _, y := range ys {
		buf = binary.AppendUvarint(buf, y)
		if buf, err = sketch.AppendFramed(buf, s.s0.buckets[y].sk); err != nil {
			return nil, err
		}
	}
	// Bucket-tree levels.
	for i := 1; i <= s.lmax; i++ {
		lv := s.levels[i]
		buf = binary.AppendUvarint(buf, lv.y)
		buf = binary.AppendUvarint(buf, uint64(lv.count))
		if buf, err = appendNode(buf, lv.root); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (s *Summary) readSketch(data []byte) (sketch.Sketch, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < n {
		return nil, nil, ErrBadEncoding
	}
	sk := s.maker.New()
	bs, ok := sk.(encoding.BinaryUnmarshaler)
	if !ok {
		return nil, nil, errors.New("core: sketch type does not support serialization")
	}
	if err := bs.UnmarshalBinary(data[sz : sz+int(n)]); err != nil {
		sketch.Recycle(s.maker, sk) // with whatever it decoded before the bad byte
		return nil, nil, err
	}
	return sk, data[sz+int(n):], nil
}

// Node flags.
const (
	nodePresent = 1 << 0
	nodeClosed  = 1 << 1
	nodeHasSk   = 1 << 2
)

func appendNode(buf []byte, b *bucket) ([]byte, error) {
	if b == nil {
		return append(buf, 0), nil
	}
	flags := byte(nodePresent)
	if b.closed {
		flags |= nodeClosed
	}
	if b.sk != nil {
		flags |= nodeHasSk
	}
	buf = append(buf, flags)
	var err error
	if b.sk != nil {
		if buf, err = sketch.AppendFramed(buf, b.sk); err != nil {
			return nil, err
		}
	}
	if buf, err = appendNode(buf, b.left); err != nil {
		return nil, err
	}
	return appendNode(buf, b.right)
}

func (s *Summary) readNode(data []byte, iv dyadic.Interval) (*bucket, []byte, error) {
	if len(data) < 1 {
		return nil, nil, ErrBadEncoding
	}
	flags := data[0]
	data = data[1:]
	if flags&nodePresent == 0 {
		return nil, data, nil
	}
	b := &bucket{iv: iv, closed: flags&nodeClosed != 0}
	var err error
	if flags&nodeHasSk != 0 {
		if b.sk, data, err = s.readSketch(data); err != nil {
			return nil, nil, err
		}
		b.sa = s.slotAdderOf(b.sk)
		compactClosed(b)
	}
	if !iv.Single() {
		lc, rc := iv.Children()
		if b.left, data, err = s.readNode(data, lc); err == nil {
			b.right, data, err = s.readNode(data, rc)
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
		s.recycleTree(b) // the part of the subtree decoded before the bad byte
		return nil, nil, err
	}
	return b, data, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// have been created by NewSummary with the same aggregate and Config
// (including Seed) that produced the bytes; the detectable mismatches
// (alpha, level count) are reported as typed incompatibility errors. The
// decode walk is shared with ParseMergeImage, and the receiver is left
// unchanged on error.
func (s *Summary) UnmarshalBinary(data []byte) error {
	img, err := s.ParseMergeImage(data)
	if err != nil {
		return err
	}
	img.applied = true
	s.install(img.in)
	return nil
}
