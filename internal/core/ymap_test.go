package core

import (
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// TestYMapIsAMap: the singleton level's table holds what a Go map fed the
// same sets and deletes holds, across growth and deletions that shift probe
// runs back, with y values that crowd a few home slots, and its bytes are
// its slots, twelve each, three quarters full at most.
func TestYMapIsAMap(t *testing.T) {
	var m ymap
	ref := map[uint64]uint32{}
	rng := hash.New(9)
	for i := range 200_000 {
		y := rng.Uint64n(3000)
		if i%3 == 0 {
			y <<= 40 // the same low bits, different homes only through the multiply
		}
		switch h := m.get(y); {
		case h != ref[y]:
			t.Fatalf("op %d: get(%d) = %d, the map holds %d", i, y, h, ref[y])
		case rng.Uint64n(5) < 2:
			m.del(y)
			delete(ref, y)
		default:
			v := uint32(1 + rng.Uint64n(1<<20))
			m.set(y, v)
			ref[y] = v
		}
		if m.n != len(ref) || m.n*4 > len(m.hs)*3 {
			t.Fatalf("op %d: %d entries in %d slots, the map holds %d", i, m.n, len(m.hs), len(ref))
		}
	}
	seen := 0
	m.each(func(y uint64, h uint32) {
		if ref[y] != h {
			t.Fatalf("each: %d → %d, the map holds %d", y, h, ref[y])
		}
		seen++
	})
	if seen != len(ref) || m.bytes() != int64(12*len(m.hs)) {
		t.Fatalf("each saw %d of %d entries; %d bytes over %d slots", seen, len(ref), m.bytes(), len(m.hs))
	}
}
