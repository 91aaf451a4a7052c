// Package slab keeps many small records of one type in fixed-size chunks and
// names each by a uint32 handle. The correlated summary holds tens of
// thousands of tree nodes and bucket sketches; kept here, a record costs its
// own size and nothing beside it — no allocator size class, no pointer to it
// from its owner, no header of its own — and a child or a sketch is a
// four-byte handle, not an eight-byte pointer or a sixteen-byte interface.
//
// A chunk is allocated once and never moved or reallocated, so growth leaves
// no copy behind and a record's address is stable for as long as its handle
// is held. A freed slot waits for the next Alloc; slots are never given back
// to the collector, so what a slab holds is the most it has held.
package slab

// chunkLen is the records a chunk holds: 255, which is 4 080 bytes of 16-byte
// tree nodes and 8 160 of 32-byte sketches — at most that much spare in the
// last chunk of a slab, beside the megabytes a tenant's summaries hold. Not
// 256: a chunk of records holding pointers carries the allocator's 8-byte
// header, so 256 sketches, 8 200 bytes, would take the 9 472-byte size class
// and leave 1 272 bytes of every chunk to nobody; 255 fill the 8 KiB class,
// and 255 tree nodes the 4 KiB one. Handles still count 256 to a chunk — the last of
// every 256 is never handed out — so finding a record stays a shift and a
// mask.
const (
	chunkBits = 8
	chunkLen  = 1<<chunkBits - 1
)

// Slab holds records of type T. The zero Slab is empty and ready to use; it
// belongs to one goroutine at a time.
type Slab[T any] struct {
	chunks []*[chunkLen]T
	used   uint32   // slots ever handed out
	free   []uint32 // handles freed since, the last to be taken next
}

// Alloc returns the handle of a slot no one holds, never 0. A slot that has
// never been used is T's zero value; a freed one holds what its last holder
// left in it.
func (s *Slab[T]) Alloc() uint32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	if int(s.used) == len(s.chunks)*chunkLen {
		s.chunks = append(s.chunks, new([chunkLen]T))
	}
	i := s.used/chunkLen<<chunkBits | s.used%chunkLen
	s.used++
	return i + 1
}

// At returns the record h names. The pointer stays valid, and the record in
// place, until h is freed.
func (s *Slab[T]) At(h uint32) *T {
	i := h - 1
	return &s.chunks[i>>chunkBits][i&(1<<chunkBits-1)]
}

// Free gives h's slot back for the next Alloc. The caller must drop every
// reference to the record.
func (s *Slab[T]) Free(h uint32) { s.free = append(s.free, h) }

// Live returns the slots held: allocated and not freed.
func (s *Slab[T]) Live() int { return int(s.used) - len(s.free) }

// Spare returns the slots no one holds: freed ones and the rest of the last
// chunk.
func (s *Slab[T]) Spare() int { return len(s.chunks)*chunkLen - s.Live() }
