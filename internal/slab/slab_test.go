package slab

import "testing"

// TestSlabReusesAndNeverMoves: handles start at 1, a freed slot is the next
// one taken, growth adds a chunk without moving a record, and Live and Spare
// add up to the chunks held.
func TestSlabReusesAndNeverMoves(t *testing.T) {
	var s Slab[[2]uint64]
	first := s.Alloc()
	if first != 1 || s.Live() != 1 || s.Spare() != chunkLen-1 {
		t.Fatalf("first handle %d, live %d, spare %d", first, s.Live(), s.Spare())
	}
	p := s.At(first)
	p[0] = 42
	handles := []uint32{first}
	for len(handles) < 3*chunkLen {
		h := s.Alloc()
		s.At(h)[0] = uint64(h)
		handles = append(handles, h)
	}
	if s.At(first) != p || p[0] != 42 || len(s.chunks) != 3 {
		t.Fatalf("after growth to %d chunks the first record moved or changed", len(s.chunks))
	}
	for _, h := range handles[1:] {
		if s.At(h)[0] != uint64(h) {
			t.Fatalf("record %d holds %d", h, s.At(h)[0])
		}
	}
	s.Free(handles[10])
	s.Free(handles[20])
	if s.Live() != 3*chunkLen-2 || s.Spare() != 2 {
		t.Fatalf("live %d, spare %d after two frees", s.Live(), s.Spare())
	}
	if a, b := s.Alloc(), s.Alloc(); a != handles[20] || b != handles[10] || len(s.chunks) != 3 {
		t.Fatalf("took %d and %d, want the freed %d and %d, with no chunk added", a, b, handles[20], handles[10])
	}
	if s.Alloc(); len(s.chunks) != 4 || s.Spare() != chunkLen-1 {
		t.Fatalf("a full slab grew to %d chunks with %d spare", len(s.chunks), s.Spare())
	}
}
