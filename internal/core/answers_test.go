package core

import (
	"bufio"
	"compress/gzip"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/hash"
)

// parentAnswersPath holds answers written by the code before closed
// one-sided F2 buckets folded into their chain heads, which this test holds
// every later build to, bit for bit. The file is only ever written by that
// code, from a checkout of it with this file copied in:
//
//	scripts/parent-answers.sh 9ac07ac
const parentAnswersPath = "testdata/parent_answers.txt.gz"

var writeParentAnswers = flag.Bool("write-parent-answers", false, "write "+parentAnswersPath+" from this build (run by scripts/parent-answers.sh)")

// answerCase is one summary of TestParentAnswers: F2 under corrd's options
// but for a smaller α, so that its levels go dense and discard on a stream
// a test can afford.
type answerCase struct {
	dirs  Dirs
	zipf  bool
	batch int // tuples per AddBatch
}

func (c answerCase) String() string {
	dist := "uniform"
	if c.zipf {
		dist = "zipf"
	}
	return fmt.Sprintf("%s/%s/%d", map[Dirs]string{Both: "both", LE: "le", GE: "ge"}[c.dirs], dist, c.batch)
}

func answerCases() []answerCase {
	var cases []answerCase
	for _, d := range []Dirs{Both, LE, GE} {
		for _, zipf := range []bool{false, true} {
			for _, batch := range []int{16, 256, 32_768} {
				cases = append(cases, answerCase{d, zipf, batch})
			}
		}
	}
	return cases
}

// answerSummary feeds the case's stream to a new summary.
func answerSummary(t *testing.T, c answerCase) *Summary {
	t.Helper()
	const n, ymax = 120_000, 999_999
	s := mustSummary(t, F2Aggregate(), Config{
		Eps: 0.15, Delta: 0.1, YMax: ymax, MaxStreamLen: 1 << 24, MaxX: 500_001,
		Seed: 42, Alpha: 48, Dirs: c.dirs,
	})
	var st gen.Stream = gen.Uniform(n, 20_000, ymax+1, 5)
	if c.zipf {
		st = gen.Zipf(n, 20_000, ymax+1, 1.1, 6)
	}
	batch := make([]Tuple, 0, c.batch)
	for {
		tu, ok := st.Next()
		if ok {
			batch = append(batch, Tuple{X: tu.X, Y: tu.Y, W: 1})
		}
		if len(batch) == cap(batch) || (!ok && len(batch) > 0) {
			if err := s.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
		if !ok {
			return s
		}
	}
}

// servingLevels returns, for direction d, the levels that serve some cutoff
// and the range of distances from d's end each serves: level i takes the
// cutoffs at distances in [from[i], to[i]).
func servingLevels(s *Summary, d int) (levels []int, from, to []uint64) {
	lo := uint64(0)
	marks := []uint64{s.s0.y[d]}
	for i := 1; i <= s.lmax; i++ {
		marks = append(marks, s.levels[i].y[d])
	}
	for i, hi := range marks {
		hi = min(hi, s.cfg.YMax+1)
		if hi > lo {
			levels, from, to = append(levels, i), append(from, lo), append(to, hi)
			lo = hi
		}
	}
	return levels, from, to
}

// answerCutoffs picks direction d's cutoffs: the first and last distance
// every serving level serves and two between, a cutoff past the top level's
// reach if there is one, then random ones, 64 at least.
func answerCutoffs(s *Summary, d int, rng *hash.RNG) []uint64 {
	var cs []uint64
	levels, from, to := servingLevels(s, d)
	for k := range levels {
		cs = append(cs, from[k], to[k]-1, from[k]+rng.Uint64n(to[k]-from[k]), from[k]+rng.Uint64n(to[k]-from[k]))
	}
	if top := to[len(to)-1]; top <= s.cfg.YMax {
		cs = append(cs, top)
	}
	for len(cs) < 64 {
		cs = append(cs, rng.Uint64n(s.cfg.YMax+1))
	}
	for i, dc := range cs {
		cs[i] = s.dist(d, dc) // a distance to a cutoff
	}
	return cs
}

// answerLine is one query's answer as the file holds it: the serving level,
// −1 for none, and the estimate's float bits.
func answerLine(s *Summary, c answerCase, d int, cutoff uint64) string {
	est, lvl, err := s.estimate(d, cutoff)
	if err != nil {
		lvl, est = -1, 0
	}
	return fmt.Sprintf("%s %s %d %d %#016x", c, []string{"LE", "GE"}[d], cutoff, lvl, math.Float64bits(est))
}

// TestParentAnswers: F2 summaries serving Both, LE and GE, fed uniform and
// zipf streams in 16-, 256- and 32 768-tuple batches, long enough that
// their levels go dense and discard, answer at least 64 cutoffs a direction
// — every serving level's first and last and two more, and random ones —
// with the level and the float bits the code before folding gave. Folded
// buckets are checked to be there, so the answers are those of folded trees,
// and the answers are read from each summary's image restored, which must
// hold the live one's folds: decoding neither unfolds nor folds.
func TestParentAnswers(t *testing.T) {
	if *writeParentAnswers {
		writeParentAnswersFile(t)
		return
	}
	f, err := os.Open(parentAnswersPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{} // by case, in the file's order
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		want[name] = append(want[name], sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	folded := map[Dirs]int{}
	for _, c := range answerCases() {
		lines := want[c.String()]
		if len(lines) == 0 {
			t.Fatalf("%s: no answers in %s", c, parentAnswersPath)
		}
		live := answerSummary(t, c)
		checkInvariants(t, live)
		// A folded image reads back folded, unchanged, through the version 4
		// grammar, and answers as the live summary does.
		img, err := live.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		s := mustSummary(t, F2Aggregate(), live.cfg)
		if err := s.UnmarshalBinary(img); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		checkInvariants(t, s)
		n, shared := foldedBuckets(s)
		if m, _ := foldedBuckets(live); m != n {
			t.Errorf("%s: %d buckets folded live, %d restored", c, m, n)
		}
		if shared > 0 {
			t.Errorf("%s: %d folded buckets are kept by both directions; ingest folds only what one keeps alone", c, shared)
		}
		folded[c.dirs] += n
		t.Logf("%s: %d buckets folded, space %d", c, n, s.Space())
		served := map[string]bool{}
		for _, line := range lines {
			var name, dir string
			var cutoff uint64
			var lvl int
			if _, err := fmt.Sscanf(line, "%s %s %d %d", &name, &dir, &cutoff, &lvl); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			d := strings.Index("LE GE", dir) / 3
			if got := answerLine(live, c, d, cutoff); got != line {
				t.Errorf("answer %q, the parent's %q", got, line)
			}
			if got := answerLine(s, c, d, cutoff); got != line {
				t.Errorf("restored, answer %q, the parent's %q", got, line)
			}
			served[fmt.Sprint(dir, lvl)] = true
		}
		for d := range dirs {
			if s.cfg.Dirs&(1<<d) == 0 {
				continue
			}
			dir := []string{"LE", "GE"}[d]
			levels, _, _ := servingLevels(s, d)
			n := 0
			for _, line := range lines {
				n += strings.Count(line, " "+dir+" ")
			}
			if n < 64 {
				t.Errorf("%s: %d %s cutoffs, want 64 at least", c, n, dir)
			}
			for _, lvl := range levels {
				if !served[fmt.Sprint(dir, lvl)] {
					t.Errorf("%s: no %s cutoff served by level %d", c, dir, lvl)
				}
			}
		}
	}
	for _, d := range []Dirs{Both, LE, GE} {
		if folded[d] == 0 {
			t.Errorf("no bucket folded in the %b summaries; the test lost its point", d)
		}
	}
}

// foldedBuckets counts the closed buckets that hold no sketch, and of them
// those both directions keep.
func foldedBuckets(s *Summary) (folded, shared int) {
	var walk func(h uint32)
	walk = func(h uint32) {
		if h == 0 {
			return
		}
		b := s.nodes.At(h)
		if b.isClosed() && b.sk == 0 {
			folded++
			if b.keep() == Both {
				shared++
			}
		}
		walk(b.left)
		walk(b.right)
	}
	for i := 1; i <= s.lmax; i++ {
		walk(s.levels[i].root)
	}
	return folded, shared
}

// writeParentAnswersFile writes every case's answers to parentAnswersPath.
func writeParentAnswersFile(t *testing.T) {
	if err := os.MkdirAll(filepath.Dir(parentAnswersPath), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(parentAnswersPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	rng := hash.New(2024)
	for _, c := range answerCases() {
		s := answerSummary(t, c)
		for d := range dirs {
			if s.cfg.Dirs&(1<<d) == 0 {
				continue
			}
			for _, cutoff := range answerCutoffs(s, d, rng) {
				fmt.Fprintln(zw, answerLine(s, c, d, cutoff))
			}
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
