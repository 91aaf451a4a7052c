package correlated

import (
	"encoding/binary"
	"errors"
	"slices"

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

// Version 2: after the predicate byte, the number of parts, and per part a
// byte naming the directions it serves (core.Dirs, with partMirror set if
// it is seeded Seed ^ mirrorSeed) and its core image behind its length.
// Version 1 held an LE and a GE image, each behind its length plus one
// (zero marking an absent direction), the GE one of a summary over
// mirrored y seeded Seed ^ mirrorSeed; it restores as two one-sided
// parts. F0Summary's images are still version 1.
const (
	apiMarshalVersion = 2
	twoImageVersion   = 1
	partMirror        = 1 << 7
)

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

// marshal writes d's parts. They encode straight into one buffer sized up
// front.
func (d *dual) marshal() ([]byte, error) {
	size := 3
	for _, p := range d.parts {
		size += 1 + binary.MaxVarintLen64 + p.ImageSizeHint()
	}
	buf := append(make([]byte, 0, size), apiMarshalVersion, byte(d.pred), byte(len(d.parts)))
	for i, sh := range d.shapes() {
		head := byte(sh.dirs)
		if sh.mirror {
			head |= partMirror
		}
		var err error
		buf = append(buf, head)
		if buf, err = sketch.AppendPrefixed(buf, 0, d.parts[i].AppendBinary); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// partImage is one part of a wire image: its shape and its core image.
type partImage struct {
	shape
	img []byte
}

// partImages splits a wire image into its parts, validating the framing
// against the receiver's Predicate: the parts must serve its directions,
// each exactly once. Shared by unmarshal (restore) and mergeMarshaled (fold
// in).
func (d *dual) partImages(data []byte) ([]partImage, error) {
	if len(data) < 2 || (data[0] != apiMarshalVersion && data[0] != twoImageVersion) {
		return nil, ErrBadEncoding
	}
	if Predicate(data[1]) != d.pred {
		return nil, compat.Mismatch("predicate", d.pred, Predicate(data[1]))
	}
	version := data[0]
	data = data[2:]
	// next cuts one image, behind its length plus bias, off data.
	next := func(bias uint64) ([]byte, bool) {
		n, sz := binary.Uvarint(data)
		if sz <= 0 || n < bias || uint64(len(data)-sz) < n-bias {
			return nil, false
		}
		img := data[sz : sz+int(n-bias)]
		data = data[sz+int(n-bias):]
		return img, true
	}
	var parts []partImage
	if version == twoImageVersion {
		for _, sh := range []shape{{core.LE, false}, {core.GE, true}} {
			if len(data) > 0 && data[0] == 0 { // an absent direction
				data = data[1:]
				continue
			}
			img, ok := next(1)
			if !ok {
				return nil, ErrBadEncoding
			}
			parts = append(parts, partImage{sh, img})
		}
	} else {
		if len(data) < 1 || data[0] > 2 {
			return nil, ErrBadEncoding
		}
		parts = make([]partImage, data[0])
		data = data[1:]
		for i := range parts {
			if len(data) < 1 {
				return nil, ErrBadEncoding
			}
			head := data[0]
			data = data[1:]
			img, ok := next(0)
			if !ok || head&^(partMirror|byte(core.Both)) != 0 {
				return nil, ErrBadEncoding
			}
			parts[i] = partImage{shape{core.Dirs(head &^ partMirror), head&partMirror != 0}, img}
		}
	}
	want, _ := dirsOf(d.pred)
	var got core.Dirs
	for _, p := range parts {
		if p.dirs == 0 || p.dirs&got != 0 {
			return nil, ErrBadEncoding
		}
		got |= p.dirs
	}
	if got != want || len(data) != 0 {
		return nil, ErrBadEncoding
	}
	return parts, nil
}

// unmarshal restores d from a wire image. If d's parts are shaped as the
// image's, each restores in place; otherwise — a version-1 image's two
// directions into a summary built here, or back — parts of the image's
// shapes are built anew and replace d's once every one has decoded.
func (d *dual) unmarshal(data []byte) error {
	imgs, err := d.partImages(data)
	if err != nil {
		return err
	}
	parts := d.parts
	if !slices.Equal(d.shapes(), shapesOf(imgs)) {
		parts = make([]*core.Summary, len(imgs))
		for i, pi := range imgs {
			if parts[i], err = d.newPart(pi.dirs, pi.mirror); err != nil {
				return err
			}
		}
	}
	for i, pi := range imgs {
		if err := parts[i].UnmarshalBinary(pi.img); err != nil {
			return err
		}
	}
	d.parts = parts
	return nil
}

// shapesOf returns the shapes of a wire image's parts.
func shapesOf(imgs []partImage) []shape {
	out := make([]shape, len(imgs))
	for i, pi := range imgs {
		out[i] = pi.shape
	}
	return out
}

// mergeMarshaled folds a summary serialized by dual.marshal into d without
// materializing a second summary. Its parts must be shaped as d's. Every
// part is parsed before any is applied, so a malformed or incompatible
// image leaves d untouched.
func (d *dual) mergeMarshaled(data []byte) error {
	imgs, err := d.partImages(data)
	if err != nil {
		return err
	}
	if a, b := d.shapes(), shapesOf(imgs); !slices.Equal(a, b) {
		return compat.Mismatch("parts", a, b)
	}
	parsed := make([]*core.MergeImage, len(imgs))
	for i, pi := range imgs {
		if parsed[i], err = d.parts[i].ParseMergeImage(pi.img); err != nil {
			for _, img := range parsed[:i] {
				img.Discard()
			}
			return err
		}
	}
	for i, img := range parsed {
		if err := d.parts[i].ApplyMergeImage(img); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *F0Summary) MarshalBinary() ([]byte, error) {
	buf := []byte{twoImageVersion}
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
	if len(data) < 1 || data[0] != twoImageVersion {
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
