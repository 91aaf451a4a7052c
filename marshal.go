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

// MarshalBinary implements encoding.BinaryMarshaler. The core image
// encodes straight into the one buffer, sized up front.
func (s *summary) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4+binary.MaxVarintLen64+s.s.ImageSizeHint())
	buf = compat.AppendImageHeader(buf, byte(s.pred()), byte(s.s.Dirs()))
	return sketch.AppendPrefixed(buf, 0, s.s.AppendBinary)
}

// UnmarshalBinary restores a summary serialized from an identically
// configured summary of the same type.
func (s *summary) UnmarshalBinary(data []byte) error {
	img, err := s.image(data)
	if err != nil {
		return err
	}
	return s.s.UnmarshalBinary(img)
}

// MergeMarshaled folds a summary serialized with MarshalBinary — the wire
// form a site ships to the coordinator — into the receiver, decoding
// buckets straight into sketches from the receiver's slabs instead of
// materializing a second summary first. The bytes must come from a summary
// of the same type (and, for Fk, the same k) built from identical Options.
// The receiver is untouched on error.
//
// Every merge adds a Lemma 4 straddling-bucket term, as Merge says: after
// k merges the error bound is k times one summary's. Merge each site's
// summary once; a stream shipped as a delta image per round drifts out of
// ε as the rounds add up (TestMergeRoundsAccuracy: 200 000 tuples, Eps
// 0.15, the largest relative error over six cutoffs reads 0.12 / 0.20 /
// 0.09 for F2 uniform / F2 zipf / COUNT after k = 8 delta images and
// 0.30 / 0.49 / 0.26 after k = 32, all underestimates, where one summary
// of the stream and four images merged once stay within ε).
func (s *summary) MergeMarshaled(data []byte) error {
	img, err := s.image(data)
	if err != nil {
		return err
	}
	return s.s.MergeMarshaled(img)
}

// pred is the Predicate s serves: summaryConfig's map, inverted.
func (s *summary) pred() Predicate { return Predicate(s.s.Dirs() - 1) }

// image returns the core image inside a wire image, validating the framing
// against the receiver's Predicate.
func (s *summary) image(data []byte) ([]byte, error) {
	if old := compat.RetiredImage(data); old != "" {
		return nil, fmt.Errorf("%w: %s, which this release does not read (README \"Upgrading\")", ErrBadEncoding, old)
	}
	switch pred, dirs, rest, ok := compat.ImageHeader(data); {
	case !ok:
		return nil, ErrBadEncoding
	case Predicate(pred) != s.pred():
		return nil, compat.Mismatch("predicate", s.pred(), Predicate(pred))
	case dirs != byte(s.s.Dirs()):
		return nil, ErrBadEncoding
	default:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n != uint64(len(rest)-sz) {
			return nil, ErrBadEncoding
		}
		return rest[sz:], nil
	}
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
