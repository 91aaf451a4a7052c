//go:build !unix

package sketch

// Where there is no mmap, an arena's chunks are ordinary byte slices: the
// blocks are carved, classed and reused as on unix, but the chunks are on the
// collected heap, and go back to it with the arena.

const pageSize = 4096

func mapBytes(n int) []byte { return make([]byte, n) }

func unmapBytes([]byte) {}
