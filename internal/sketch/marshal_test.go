package sketch

import (
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// roundTrip serializes src and deserializes into dst (fresh from the same
// maker), failing the test on error.
func roundTrip(t *testing.T, src, dst Sketch) {
	t.Helper()
	data, err := src.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.(interface{ UnmarshalBinary([]byte) error }).UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
}

func TestCounterRoundTrip(t *testing.T) {
	for _, m := range []Maker{NewCountMaker(), NewSumMaker()} {
		src, dst := m.New(), m.New()
		src.Add(7, 3)
		src.Add(9, -1)
		roundTrip(t, src, dst)
		if dst.Estimate() != src.Estimate() {
			t.Fatalf("%T: restored %v, want %v", m, dst.Estimate(), src.Estimate())
		}
	}
}

func TestCounterKindMismatch(t *testing.T) {
	src := NewCountMaker().New()
	data, _ := src.(*counter).MarshalBinary()
	dst := NewSumMaker().New().(*counter)
	if err := dst.UnmarshalBinary(data); err == nil {
		t.Fatal("COUNT bytes accepted by SUM counter")
	}
}

func TestCountSketchRoundTrip(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(401))
	src, dst := m.New().(*CountSketch), m.New().(*CountSketch)
	rng := hash.New(1)
	for i := 0; i < 5000; i++ {
		src.Add(rng.Uint64n(500), int64(rng.Uint64n(4))-1)
	}
	roundTrip(t, src, dst)
	if dst.Estimate() != src.Estimate() {
		t.Fatalf("F2 restored %v, want %v", dst.Estimate(), src.Estimate())
	}
	for x := uint64(0); x < 20; x++ {
		if dst.EstimateItem(x) != src.EstimateItem(x) {
			t.Fatalf("item %d: restored %v, want %v", x, dst.EstimateItem(x), src.EstimateItem(x))
		}
	}
	// Restored sketch must keep working: further adds agree.
	src.Add(42, 5)
	dst.Add(42, 5)
	if dst.Estimate() != src.Estimate() {
		t.Fatal("divergence after post-restore adds")
	}
}

func TestCountSketchGeometryMismatch(t *testing.T) {
	src := NewF2Maker(64, 3, hash.New(403)).New().(*CountSketch)
	data, _ := src.MarshalBinary()
	dst := NewF2Maker(32, 3, hash.New(403)).New().(*CountSketch)
	if err := dst.UnmarshalBinary(data); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestL1RoundTrip(t *testing.T) {
	m := NewL1Maker(64, hash.New(421))
	src, dst := m.New(), m.New()
	for x := uint64(0); x < 500; x++ {
		src.Add(x, int64(x%5)-2)
	}
	roundTrip(t, src, dst)
	if dst.Estimate() != src.Estimate() {
		t.Fatalf("restored %v, want %v", dst.Estimate(), src.Estimate())
	}
}

func TestFkRoundTrip(t *testing.T) {
	m := NewFkMaker(3, 16, 64, 128, 3, hash.New(431))
	src, dst := m.New().(*Fk), m.New().(*Fk)
	for _, x := range zipfStream(30000, 3000, 1.3, 9) {
		src.Add(x, 1)
	}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if dst.Estimate() != src.Estimate() {
		t.Fatalf("restored %v, want %v", dst.Estimate(), src.Estimate())
	}
	if dst.CheapEstimate() != src.CheapEstimate() {
		t.Fatal("cheap-estimate state not restored")
	}
	if dst.Size() != src.Size() {
		t.Fatalf("size %d, want %d", dst.Size(), src.Size())
	}
	// Post-restore adds must keep both in lockstep.
	src.Add(99, 7)
	dst.Add(99, 7)
	if dst.Estimate() != src.Estimate() {
		t.Fatal("divergence after post-restore adds")
	}
}

func TestMarshalRejectsGarbage(t *testing.T) {
	m := NewF2Maker(16, 2, hash.New(433))
	dst := m.New().(*CountSketch)
	for _, bad := range [][]byte{nil, {0}, {99, 2}, {1, 99}, {1, 2, 0xff}} {
		if err := dst.UnmarshalBinary(bad); err == nil {
			t.Fatalf("garbage %v accepted", bad)
		}
	}
}
