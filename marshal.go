package correlated

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/corrf0"
	"github.com/streamagg/correlated/internal/sketch"
)

// Binary serialization for the moment and distinct-count summaries, for
// checkpoint/restore and for shipping a summary from the ingest node to a
// query node. The configuration is deliberately NOT part of the encoding:
// deserialize by constructing a summary with the *same Options* (including
// Seed — it regenerates the hash functions) and calling UnmarshalBinary on
// it. Mismatched configurations are detected and rejected where possible.

// A moment summary's image is the header compat.AppendImageHeader writes
// and its core image behind its length. The older framings
// compat.RetiredImage names are refused by name. F0Summary's images are
// version 1 of their own framing.
const f0MarshalVersion = 1

// ErrBadEncoding reports malformed or configuration-incompatible bytes.
var ErrBadEncoding = errors.New("correlated: bad or incompatible encoding")

type binaryCodec interface {
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

func nilF0(s *corrf0.Summary) binaryCodec {
	if s == nil {
		return nil
	}
	return s
}

// marshal writes d's image; the core image encodes straight into the one
// buffer, sized up front.
func (d *dual) marshal() ([]byte, error) {
	buf := make([]byte, 0, 4+binary.MaxVarintLen64+d.s.ImageSizeHint())
	buf = compat.AppendImageHeader(buf, byte(d.pred), byte(d.s.Dirs()))
	return sketch.AppendPrefixed(buf, 0, d.s.AppendBinary)
}

// image returns the core image inside a wire image, validating the framing
// against the receiver's Predicate. Shared by unmarshal (restore) and
// mergeMarshaled (fold in).
func (d *dual) image(data []byte) ([]byte, error) {
	if old := compat.RetiredImage(data); old != "" {
		return nil, fmt.Errorf("%w: %s, which this release does not read (README \"Upgrading\")", ErrBadEncoding, old)
	}
	switch pred, dirs, rest, ok := compat.ImageHeader(data); {
	case !ok:
		return nil, ErrBadEncoding
	case Predicate(pred) != d.pred:
		return nil, compat.Mismatch("predicate", d.pred, Predicate(pred))
	case dirs != byte(d.s.Dirs()):
		return nil, ErrBadEncoding
	default:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n != uint64(len(rest)-sz) {
			return nil, ErrBadEncoding
		}
		return rest[sz:], nil
	}
}

// unmarshal restores d from a wire image.
func (d *dual) unmarshal(data []byte) error {
	img, err := d.image(data)
	if err != nil {
		return err
	}
	return d.s.UnmarshalBinary(img)
}

// mergeMarshaled folds a summary serialized by dual.marshal into d without
// materializing a second summary. A malformed or incompatible image leaves
// d untouched.
func (d *dual) mergeMarshaled(data []byte) error {
	img, err := d.image(data)
	if err != nil {
		return err
	}
	return d.s.MergeMarshaled(img)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *F0Summary) MarshalBinary() ([]byte, error) {
	buf := []byte{f0MarshalVersion}
	buf = binary.AppendUvarint(buf, s.n)
	for _, side := range []binaryCodec{nilF0(s.le), nilF0(s.ge)} {
		if side == nil {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		payload, err := side.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(payload))+1)
		buf = append(buf, payload...)
	}
	return buf, nil
}

// UnmarshalBinary restores a summary serialized from an identically
// configured F0Summary.
func (s *F0Summary) UnmarshalBinary(data []byte) error {
	if len(data) < 1 || data[0] != f0MarshalVersion {
		return ErrBadEncoding
	}
	data = data[1:]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return ErrBadEncoding
	}
	s.n = n
	data = data[sz:]
	for _, side := range []binaryCodec{nilF0(s.le), nilF0(s.ge)} {
		ln, sz := binary.Uvarint(data)
		if sz <= 0 {
			return ErrBadEncoding
		}
		data = data[sz:]
		if ln == 0 {
			if side != nil {
				return ErrBadEncoding
			}
			continue
		}
		ln--
		if uint64(len(data)) < ln || side == nil {
			return ErrBadEncoding
		}
		if err := side.UnmarshalBinary(data[:ln]); err != nil {
			return err
		}
		data = data[ln:]
	}
	if len(data) != 0 {
		return ErrBadEncoding
	}
	return nil
}
