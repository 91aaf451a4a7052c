package heavy

import (
	"testing"

	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/hash"
)

// TestHeavyHittersEndToEnd: one summary serving both directions reports
// every exact heavy hitter and nothing far below the threshold, for y <= c
// against the stream and for y >= c against the stream over mirrored y,
// where y >= c is ymax − y <= ymax − c.
func TestHeavyHittersEndToEnd(t *testing.T) {
	const ymax = 1<<16 - 1
	s, err := New(2, core.Config{Eps: 0.1, Delta: 0.1, YMax: ymax, MaxStreamLen: 400000, Seed: 1, Dirs: core.Both})
	if err != nil {
		t.Fatal(err)
	}
	base, mirror := exact.New(), exact.New()
	add := func(x, y uint64) {
		if err := s.Add(x, y); err != nil {
			t.Fatal(err)
		}
		base.Add(x, y)
		mirror.Add(x, ymax-y)
	}
	rng := hash.New(3)
	// Background noise: 200k tuples over 10k identifiers.
	for i := 0; i < 200000; i++ {
		add(rng.Uint64n(10000)+100, rng.Uint64n(ymax+1))
	}
	// Three genuinely heavy identifiers concentrated at low y, one at high y.
	for _, h := range []struct {
		x, n uint64
	}{{1, 30000}, {2, 20000}, {3, 15000}, {4, 25000}} {
		for i := uint64(0); i < h.n; i++ {
			y := rng.Uint64n(1 << 14) // y < 2^14, or for x = 4 ymax − y
			if h.x == 4 {
				y = ymax - y
			}
			add(h.x, y)
		}
	}

	for _, q := range []struct {
		dir   string
		query func(uint64, float64) ([]Item, error)
		c     uint64
		exact *exact.Baseline // its y <= c' selects what the query does
		ec    uint64          // c'
	}{
		{"LE", s.QueryLE, 1 << 14, base, 1 << 14},
		{"LE", s.QueryLE, ymax, base, ymax},
		{"GE", s.QueryGE, ymax - 1<<14, mirror, 1 << 14},
		{"GE", s.QueryGE, 0, mirror, ymax},
	} {
		const phi = 0.05
		got, err := q.query(q.c, phi)
		if err != nil {
			t.Fatalf("%s query c=%d: %v", q.dir, q.c, err)
		}
		want := q.exact.HeavyHitters(q.ec, phi)
		gotSet := map[uint64]bool{}
		for _, it := range got {
			gotSet[it.X] = true
		}
		// Every exact heavy hitter must be reported (phi well above
		// the eps slack of the guarantee).
		for x := range want {
			if !gotSet[x] {
				t.Errorf("%s c=%d: missed heavy hitter %d", q.dir, q.c, x)
			}
		}
		// No identifier far below the threshold may be reported
		// ((phi - eps) F2 is the guarantee; use phi/4 as "far below").
		f2 := q.exact.F2(q.ec)
		fr := q.exact.HeavyHitters(q.ec, 0)
		for _, it := range got {
			if f := float64(fr[it.X]); f*f < (phi/4)*f2 {
				t.Errorf("%s c=%d: spurious heavy hitter %d (freq %v)", q.dir, q.c, it.X, f)
			}
		}
	}
}

func TestHeavyHittersFrequencyEstimates(t *testing.T) {
	const ymax = 1<<12 - 1
	s, err := New(2, core.Config{Eps: 0.1, Delta: 0.1, YMax: ymax, MaxStreamLen: 100000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := s.Add(99, uint64(i)%ymax); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.QueryLE(ymax, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].X != 99 {
		t.Fatalf("heavy hitters = %+v, want just item 99", got)
	}
	if got[0].Freq < 9000 || got[0].Freq > 11000 {
		t.Fatalf("estimated frequency %v, want ~10000", got[0].Freq)
	}
}

func TestF2QueryOnHHSummary(t *testing.T) {
	s, err := New(2, core.Config{Eps: 0.2, Delta: 0.1, YMax: 1023, MaxStreamLen: 10000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// 100 items once each: F2 = 100.
	for x := uint64(0); x < 100; x++ {
		if err := s.Add(x, x); err != nil {
			t.Fatal(err)
		}
	}
	f2, err := s.Estimate(1023)
	if err != nil {
		t.Fatal(err)
	}
	if f2 < 80 || f2 > 120 {
		t.Fatalf("F2 = %v, want ~100", f2)
	}
	if s.Space() <= 0 {
		t.Fatal("space not positive")
	}
}

func TestFkHeavyHitters(t *testing.T) {
	const ymax = 1<<14 - 1
	s, err := New(3, core.Config{Eps: 0.2, Delta: 0.1, YMax: ymax, MaxStreamLen: 200000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.New(23)
	// Background: 100k tuples across 20k ids; two dominant ids at low y.
	for i := 0; i < 100000; i++ {
		if err := s.Add(rng.Uint64n(20000)+100, rng.Uint64n(ymax+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8000; i++ {
		if err := s.Add(1, rng.Uint64n(1<<12)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		if err := s.Add(2, rng.Uint64n(1<<12)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.QueryLE(1<<12, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || got[0].X != 1 || got[1].X != 2 {
		t.Fatalf("Fk heavy hitters = %+v, want ids 1 then 2 first", got)
	}
	fk, err := s.Estimate(ymax)
	if err != nil || fk <= 0 {
		t.Fatalf("Fk estimate %v err %v", fk, err)
	}
	if s.Space() <= 0 {
		t.Fatal("space not positive")
	}
}
