package slab

import (
	"runtime"
	"testing"
)

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

// TestChunkFillsItsSizeClass: a chunk of 32-byte records holding pointers —
// the bucket sketches' — with the allocator's header is one 8 KiB size class,
// not the next one up.
func TestChunkFillsItsSizeClass(t *testing.T) {
	type record struct {
		p    *int
		rest [3]uint64
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const chunks = 256
	var s Slab[record]
	before := heap()
	for i := 0; i < chunks*chunkLen; i++ {
		s.Alloc()
	}
	per := (heap() - before) / chunks
	runtime.KeepAlive(&s)
	if per < 15<<9 || per > 17<<9 { // 9 472 bytes with the next class up
		t.Fatalf("a chunk of %d 32-byte records takes %d bytes of heap, want 8 KiB", chunkLen, per)
	}
}

// TestHandlesSkipTheLastOfEvery256: a chunk holds 255 records and handles
// count 256 to a chunk, so the handles handed out run 1–255, 257–511, …: none
// names the slot past a chunk's end, and each names its own record.
func TestHandlesSkipTheLastOfEvery256(t *testing.T) {
	var s Slab[uint32]
	seen := map[*uint32]bool{}
	for n := 0; n < 3*chunkLen; n++ {
		h := s.Alloc()
		if h%(1<<chunkBits) == 0 || seen[s.At(h)] {
			t.Fatalf("allocation %d got handle %d", n, h)
		}
		seen[s.At(h)] = true
	}
	if len(s.chunks) != 3 || s.Spare() != 0 {
		t.Fatalf("%d records in %d chunks with %d spare", 3*chunkLen, len(s.chunks), s.Spare())
	}
}
