// Package compat defines the shared incompatibility error reported when
// two summaries cannot be merged. Summaries are mergeable only when they
// were built from identical configurations — the hash functions behind
// every sketch are derived deterministically from the seed, so any
// difference in seed, accuracy target, or domain bound silently breaks the
// linearity that merging relies on. Every Merge entry point in the repo
// therefore validates its inputs field by field and reports the first
// mismatch through this package, so callers can both test with
// errors.Is(err, ErrIncompatible) and read exactly which field diverged.
// It also owns the header of a moment summary's wire image: the one live
// framing (AppendImageHeader, ImageHeader) and the framings no live
// release writes (RetiredImage), which the root package and corrd both
// refuse.
package compat

import (
	"errors"
	"fmt"
)

// ErrIncompatible is the sentinel wrapped by every merge-incompatibility
// error. Match it with errors.Is.
var ErrIncompatible = errors.New("summaries are incompatible")

// Error reports a single configuration field that prevents a merge.
// It unwraps to ErrIncompatible.
type Error struct {
	// Field names the mismatched configuration field, e.g. "eps",
	// "delta", "ymax", "seed".
	Field string
	// Want is the receiver's value, Got the other summary's.
	Want, Got string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("cannot merge: %s mismatch (have %s, other has %s): %v",
		e.Field, e.Want, e.Got, ErrIncompatible)
}

// Unwrap makes errors.Is(err, ErrIncompatible) true.
func (e *Error) Unwrap() error { return ErrIncompatible }

// Mismatch builds the incompatibility error for one field.
func Mismatch(field string, want, got any) error {
	return &Error{Field: field, Want: fmt.Sprint(want), Got: fmt.Sprint(got)}
}

// A moment summary's wire image opens with a header: its version byte, its
// predicate byte, its count of parts and its first part's directions byte
// (core.Dirs). Version 2 with one part, its core image behind its length,
// is the framing a live release writes.
const (
	imageVersion = 2
	mirrored     = 0x80 // a directions byte's bit for a part seeded for mirrored y
)

// AppendImageHeader appends the header of a live image of a summary for
// predicate pred serving directions dirs.
func AppendImageHeader(buf []byte, pred, dirs byte) []byte {
	return append(buf, imageVersion, pred, 1, dirs)
}

// ImageHeader splits a live image into its predicate and directions bytes
// and what follows its header; ok is false for bytes shorter than a header,
// or of another version or part count.
func ImageHeader(data []byte) (pred, dirs byte, rest []byte, ok bool) {
	if len(data) < 4 || data[0] != imageVersion || data[2] != 1 {
		return 0, 0, nil, false
	}
	return data[1], data[3], data[4:], true
}

// RetiredImage names the framing of a moment summary's wire image that no
// live release writes, and returns "" for any other bytes. Version 1 held
// an LE and a mirrored GE image; a summary restored from one kept them as
// two parts, the GE one seeded for mirrored y, and wrote them as such a
// version-2 image.
func RetiredImage(data []byte) string {
	switch {
	case len(data) > 0 && data[0] == 1:
		return "API image version 1 (an LE and a mirrored GE image)"
	case len(data) >= 4 && data[0] == imageVersion && (data[2] == 2 || data[3]&mirrored != 0):
		return fmt.Sprintf("the image of a summary restored from API image version 1 (%d parts, directions byte %#x)", data[2], data[3])
	}
	return ""
}
