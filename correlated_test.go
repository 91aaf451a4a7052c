package correlated_test

import (
	"fmt"
	"math"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/gen"
)

func opts(pred correlated.Predicate, seed uint64) correlated.Options {
	return correlated.Options{
		Eps: 0.15, Delta: 0.1, YMax: 1<<16 - 1,
		MaxStreamLen: 1 << 20, MaxX: 1 << 20,
		Seed: seed, Predicate: pred,
	}
}

func TestF2SummaryBothDirections(t *testing.T) {
	s, err := correlated.NewF2Summary(opts(correlated.Both, 1))
	if err != nil {
		t.Fatal(err)
	}
	base := exact.New()
	st := gen.Uniform(150000, 3000, 1<<16, 7)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := s.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
		base.Add(tp.X, tp.Y)
	}
	for _, c := range []uint64{1 << 13, 1 << 14, 1 << 15} {
		le, err := s.QueryLE(c)
		if err != nil {
			t.Fatalf("LE %d: %v", c, err)
		}
		if want := base.F2(c); math.Abs(le-want)/want > 0.25 {
			t.Errorf("F2 LE %d = %v, want %v", c, le, want)
		}
		ge, err := s.QueryGE(c)
		if err != nil {
			t.Fatalf("GE %d: %v", c, err)
		}
		// Exact F2 of {y >= c} = F2(total) restricted; compute directly.
		wantGE := geF2(base, c)
		if math.Abs(ge-wantGE)/wantGE > 0.25 {
			t.Errorf("F2 GE %d = %v, want %v", c, ge, wantGE)
		}
	}
	if s.Count() != 150000 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Space() <= 0 {
		t.Fatal("space must be positive")
	}
}

func geF2(b *exact.Baseline, c uint64) float64 { return b.F2Complement(c) }

func TestF2DirectionErrors(t *testing.T) {
	s, err := correlated.NewF2Summary(opts(correlated.LE, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryGE(0); err != correlated.ErrDirection {
		t.Fatalf("GE on LE-only summary: %v", err)
	}
	g, err := correlated.NewF2Summary(opts(correlated.GE, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.QueryLE(0); err != correlated.ErrDirection {
		t.Fatalf("LE on GE-only summary: %v", err)
	}
	if v, err := g.QueryGE(1 << 40); err != nil || v != 0 {
		t.Fatalf("GE beyond ymax: %v %v", v, err)
	}
}

func TestCountAndSumSummaries(t *testing.T) {
	cs, err := correlated.NewCountSummary(opts(correlated.LE, 3))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := correlated.NewSumSummary(opts(correlated.LE, 3))
	if err != nil {
		t.Fatal(err)
	}
	base := exact.New()
	st := gen.Zipf(100000, 10000, 1<<16, 1.1, 9)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := cs.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
		if err := ss.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
		base.Add(tp.X, tp.Y)
	}
	for _, c := range []uint64{1 << 12, 1 << 14, 1 << 15} {
		cnt, err := cs.QueryLE(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := base.Count1(c); math.Abs(cnt-want)/want > 0.15 {
			t.Errorf("count(%d) = %v, want %v", c, cnt, want)
		}
		sum, err := ss.QueryLE(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := base.Sum(c); math.Abs(sum-want)/want > 0.15 {
			t.Errorf("sum(%d) = %v, want %v", c, sum, want)
		}
	}
}

func TestFkSummaryF3(t *testing.T) {
	o := opts(correlated.LE, 4)
	o.Eps = 0.3
	s, err := correlated.NewFkSummary(3, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 3 {
		t.Fatalf("K = %d", s.K())
	}
	base := exact.New()
	st := gen.Zipf(100000, 5000, 1<<16, 1.4, 11)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := s.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
		base.Add(tp.X, tp.Y)
	}
	got, err := s.QueryLE(1<<16 - 1)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Fk(1<<16-1, 3)
	if rel := math.Abs(got-want) / want; rel > 0.5 {
		t.Fatalf("F3 = %v, want %v (rel %v)", got, want, rel)
	}
}

func TestF0SummaryAndRarity(t *testing.T) {
	o := opts(correlated.Both, 5)
	o.Eps = 0.1
	o.MaxX = 1 << 18
	s, err := correlated.NewF0Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	base := exact.New()
	st := gen.Uniform(200000, 1<<18, 1<<16, 13)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := s.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
		base.Add(tp.X, tp.Y)
	}
	c := uint64(1 << 15)
	le, err := s.QueryLE(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := base.F0(c); math.Abs(le-want)/want > 0.15 {
		t.Errorf("F0 LE = %v, want %v", le, want)
	}
	r, err := s.RarityLE(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := base.Rarity(c); math.Abs(r-want) > 0.1 {
		t.Errorf("rarity = %v, want %v", r, want)
	}
	if _, err := s.QueryGE(c); err != nil {
		t.Errorf("GE query failed: %v", err)
	}
	if _, err := s.RarityGE(c); err != nil {
		t.Errorf("GE rarity failed: %v", err)
	}
}

func TestHeavyHittersSummaryAPI(t *testing.T) {
	o := opts(correlated.LE, 6)
	s, err := correlated.NewHeavyHittersSummary(o)
	if err != nil {
		t.Fatal(err)
	}
	// One dominant identifier below the cutoff.
	for i := 0; i < 20000; i++ {
		if err := s.Add(777, uint64(i%(1<<14))); err != nil {
			t.Fatal(err)
		}
	}
	st := gen.Uniform(50000, 5000, 1<<16, 15)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := s.Add(tp.X+1000, tp.Y); err != nil {
			t.Fatal(err)
		}
	}
	hh, err := s.QueryLE(1<<14, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hh) == 0 || hh[0].X != 777 {
		t.Fatalf("heavy hitters = %+v, want 777 first", hh)
	}
	if _, err := s.F2LE(1 << 14); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryGE(0, 0.1); err != correlated.ErrDirection {
		t.Fatalf("GE on LE-only: %v", err)
	}
}

// TestHeavyHittersReproducibleFromSeed: two heavy-hitter summaries built
// with the same Options and fed the same stream give the same answers in
// both directions, to the last bit: which candidates a pruned bucket keeps
// may not depend on a map's order.
func TestHeavyHittersReproducibleFromSeed(t *testing.T) {
	var twins [2]*correlated.HeavyHittersSummary
	for i := range twins {
		var err error
		if twins[i], err = correlated.NewHeavyHittersSummary(opts(correlated.Both, 8)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 20000; j++ {
			if err := twins[i].Add(55, uint64(j)*7919%(1<<16)); err != nil {
				t.Fatal(err)
			}
		}
		st := gen.Zipf(40000, 5000, 1<<16, 1.1, 21)
		for tp, ok := st.Next(); ok; tp, ok = st.Next() {
			if err := twins[i].Add(tp.X+1000, tp.Y); err != nil {
				t.Fatal(err)
			}
		}
	}
	for c := uint64(0); c < 1<<16; c += 1 << 10 {
		for _, q := range [2]string{"LE", "GE"} {
			var got [2]string
			for i, s := range twins {
				query := s.QueryLE
				if q == "GE" {
					query = s.QueryGE
				}
				hh, err := query(c, 0.0002)
				got[i] = fmt.Sprint(hh, err)
			}
			if got[0] != got[1] {
				t.Fatalf("%s(%d): %s, then %s", q, c, got[0], got[1])
			}
		}
	}
}

func TestQuantilesCompanion(t *testing.T) {
	q, err := correlated.NewQuantiles(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for y := uint64(0); y < 100000; y++ {
		q.Add(y)
	}
	med, err := q.Median()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(med)-50000) > 2000 {
		t.Fatalf("median = %d, want ~50000", med)
	}
	p95, err := q.Query(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(p95)-95000) > 2000 {
		t.Fatalf("p95 = %d, want ~95000", p95)
	}
	if q.Count() != 100000 || q.Space() <= 0 {
		t.Fatal("bookkeeping wrong")
	}
}

func TestWindowsAPI(t *testing.T) {
	o := opts(correlated.LE, 7)
	cw, err := correlated.NewCountWindow(o, 1<<12-1)
	if err != nil {
		t.Fatal(err)
	}
	f2w, err := correlated.NewF2Window(o, 1<<12-1)
	if err != nil {
		t.Fatal(err)
	}
	o.MaxX = 1 << 16
	f0w, err := correlated.NewF0Window(o, 1<<12-1)
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Uniform(50000, 1<<16, 1<<12, 17)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		for _, w := range []interface{ Add(x, ts uint64) error }{cw, f2w, f0w} {
			if err := w.Add(tp.X, tp.Y); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Half the horizon: expect ~half the counts.
	cnt, err := cw.Query(1<<12-1, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cnt-25000)/25000 > 0.15 {
		t.Fatalf("window count = %v, want ~25000", cnt)
	}
	if _, err := f2w.Query(1<<12-1, 1<<11); err != nil {
		t.Fatal(err)
	}
	f0, err := f0w.Query(1<<12-1, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	if f0 <= 0 {
		t.Fatal("window F0 not positive")
	}
}

func TestMultipassReexports(t *testing.T) {
	tape := correlated.NewTape([]correlated.Record{
		{X: 1, Y: 3, W: 1}, {X: 1, Y: 5, W: 1}, {X: 2, Y: 9, W: 1},
	})
	res, err := correlated.RunMultipass(tape, correlated.MultipassConfig{
		Eps: 0.3, Delta: 0.1, YMax: 15, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query(15); got < 5/1.7 || got > 5*1.7 {
		t.Fatalf("multipass F2 = %v, want ~5", got)
	}
	cmp, err := correlated.SolveGreaterThan(
		[]bool{true, false, true}, []bool{true, false, false}, 0.3, 0.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Comparison != 1 {
		t.Fatalf("comparison = %d, want 1", cmp.Comparison)
	}
}

func TestFkHeavyHittersSummaryAPI(t *testing.T) {
	o := opts(correlated.Both, 8)
	o.Eps = 0.2
	s, err := correlated.NewFkHeavyHittersSummary(3, o)
	if err != nil {
		t.Fatal(err)
	}
	// One dominant identifier spread across the whole y domain, so both
	// predicate directions see it as heavy.
	for i := 0; i < 15000; i++ {
		if err := s.Add(55, (uint64(i)*7919)%(1<<16)); err != nil {
			t.Fatal(err)
		}
	}
	st := gen.Uniform(60000, 8000, 1<<16, 19)
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		if err := s.Add(tp.X+1000, tp.Y); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []func(uint64, float64) ([]correlated.HeavyHitter, error){s.QueryLE, s.QueryGE} {
		hh, err := q(1<<15, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if len(hh) == 0 || hh[0].X != 55 {
			t.Fatalf("Fk heavy hitters = %+v, want 55 first", hh)
		}
	}
	if s.Space() <= 0 {
		t.Fatal("space not positive")
	}
}

func TestMultipassF1PublicAPI(t *testing.T) {
	tape := correlated.NewTape(nil)
	for y := uint64(0); y < 64; y++ {
		tape.Append(correlated.Record{X: y % 16, Y: y, W: 3})
		tape.Append(correlated.Record{X: y % 16, Y: y, W: -1})
	}
	res, err := correlated.RunMultipass(tape, correlated.MultipassConfig{
		Eps: 0.3, Delta: 0.1, YMax: 63, F: correlated.MultipassF1, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Net weight 2 per record position: F1(y<=63) = 128.
	got := res.Query(63)
	if got < 128/1.7 || got > 128*1.7 {
		t.Fatalf("F1 multipass = %v, want ~128", got)
	}
}

func TestF0SummaryMergeDistributed(t *testing.T) {
	o := opts(correlated.LE, 61)
	o.MaxX = 1 << 16
	o.Eps = 0.1
	// Two ingest nodes, one query node.
	nodeA, err := correlated.NewF0Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := correlated.NewF0Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	base := exact.New()
	st := gen.Uniform(120000, 1<<16, 1<<16, 63)
	i := 0
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		node := nodeA
		if i%2 == 1 {
			node = nodeB
		}
		if err := node.Add(tp.X, tp.Y); err != nil {
			t.Fatal(err)
		}
		base.Add(tp.X, tp.Y)
		i++
	}
	if err := nodeA.Merge(nodeB); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint64{1 << 13, 1 << 15} {
		got, err := nodeA.QueryLE(c)
		if err != nil {
			t.Fatal(err)
		}
		want := base.F0(c)
		if math.Abs(got-want)/want > 0.15 {
			t.Fatalf("merged F0(y<=%d) = %v, want %v", c, got, want)
		}
	}
	// Mismatched predicates must not merge.
	other, _ := correlated.NewF0Summary(opts(correlated.Both, 61))
	if err := nodeA.Merge(other); err == nil {
		t.Fatal("predicate mismatch merged")
	}
}
