package correlated

import (
	"encoding/binary"
	"errors"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/corrf0"
	"github.com/streamagg/correlated/internal/sketch"
)

// Binary serialization for the moment and distinct-count summaries, for
// checkpoint/restore and for shipping a summary from the ingest node to a
// query node. The configuration is deliberately NOT part of the encoding:
// deserialize by constructing a summary with the *same Options* (including
// Seed — it regenerates the hash functions) and calling UnmarshalBinary on
// it. Mismatched configurations are detected and rejected where possible.

const apiMarshalVersion = 1

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

// marshal frames the two directions' images, each behind its length plus
// one (zero marks an absent side). Both encode straight into one buffer
// sized up front.
func (d *dual) marshal() ([]byte, error) {
	size := 2 + 2*binary.MaxVarintLen64
	for _, side := range []*core.Summary{d.le, d.ge} {
		if side != nil {
			size += side.ImageSizeHint()
		}
	}
	buf := append(make([]byte, 0, size), apiMarshalVersion, byte(d.pred))
	for _, side := range []*core.Summary{d.le, d.ge} {
		if side == nil {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		var err error
		if buf, err = sketch.AppendPrefixed(buf, 1, side.AppendBinary); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// frames splits a dual wire image into its per-direction payloads,
// validating the framing against the receiver's shape (version,
// predicate, which sides are present). frames[i] is nil for an absent
// side. Shared by unmarshal (restore) and mergeMarshaled (fold in).
func (d *dual) frames(data []byte) ([2][]byte, error) {
	var out [2][]byte
	if len(data) < 2 || data[0] != apiMarshalVersion {
		return out, ErrBadEncoding
	}
	if Predicate(data[1]) != d.pred {
		return out, compat.Mismatch("predicate", d.pred, Predicate(data[1]))
	}
	data = data[2:]
	for i, side := range []*core.Summary{d.le, d.ge} {
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return out, ErrBadEncoding
		}
		data = data[sz:]
		if n == 0 {
			if side != nil {
				return out, ErrBadEncoding
			}
			continue
		}
		n-- // length was stored +1 to distinguish "absent"
		if uint64(len(data)) < n || side == nil {
			return out, ErrBadEncoding
		}
		out[i] = data[:n]
		data = data[n:]
	}
	if len(data) != 0 {
		return out, ErrBadEncoding
	}
	return out, nil
}

func (d *dual) unmarshal(data []byte) error {
	frames, err := d.frames(data)
	if err != nil {
		return err
	}
	if frames[0] != nil {
		if err := d.le.UnmarshalBinary(frames[0]); err != nil {
			return err
		}
	}
	if frames[1] != nil {
		if err := d.ge.UnmarshalBinary(frames[1]); err != nil {
			return err
		}
	}
	return nil
}

// mergeMarshaled folds a summary serialized by dual.marshal into d
// without materializing a second summary. Both directions are parsed
// before either is applied, so a malformed or incompatible image leaves d
// untouched.
func (d *dual) mergeMarshaled(data []byte) error {
	frames, err := d.frames(data)
	if err != nil {
		return err
	}
	var imgs [2]*core.MergeImage
	if frames[0] != nil {
		if imgs[0], err = d.le.ParseMergeImage(frames[0]); err != nil {
			return err
		}
	}
	if frames[1] != nil {
		if imgs[1], err = d.ge.ParseMergeImage(frames[1]); err != nil {
			imgs[0].Discard()
			return err
		}
	}
	if imgs[0] != nil {
		if err := d.le.ApplyMergeImage(imgs[0]); err != nil {
			return err
		}
	}
	if imgs[1] != nil {
		if err := d.ge.ApplyMergeImage(imgs[1]); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *F0Summary) MarshalBinary() ([]byte, error) {
	buf := []byte{apiMarshalVersion}
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
	if len(data) < 1 || data[0] != apiMarshalVersion {
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
