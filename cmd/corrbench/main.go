// Command corrbench regenerates the paper's evaluation (Section 5): every
// figure and the prose accuracy/throughput claims, plus the Section 4
// demonstrations. Output is TSV on stdout with '#' comment headers, one
// block per experiment, ready for plotting.
//
// Usage:
//
//	corrbench -fig 2            # F2: space vs epsilon        (Figure 2)
//	corrbench -fig 3            # F2: space vs stream size, eps=0.15 (Figure 3)
//	corrbench -fig 4            #                         eps=0.20 (Figure 4)
//	corrbench -fig 5            #                         eps=0.25 (Figure 5)
//	corrbench -fig 6            # F0: space vs epsilon        (Figure 6)
//	corrbench -fig 7            # F0: space vs stream size    (Figure 7)
//	corrbench -table accuracy-f2
//	corrbench -table accuracy-f0
//	corrbench -table throughput
//	corrbench -table throughput -shards 4   # sharded-engine ingest
//	corrbench -table sharded-scaling        # tuples/sec at P = 1, 2, 4, 8
//	corrbench -table greater-than
//	corrbench -table multipass
//	corrbench -table occupancy              # per-level buckets, forms, counters and bytes for corrdbench's four shapes
//	corrbench -table occupancy -n 1000000   # ... for that stream length, uniform and zipf
//	corrbench -all              # everything, at the default sizes
//
// The paper ran 40–50M-tuple streams; the defaults here are scaled down
// (the findings are visible from ~1M tuples) and -n restores full scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/turnstile"
	"github.com/streamagg/correlated/shard"
)

const (
	ymaxPaper = 1_000_000 // y drawn from [0, 1e6] as in the paper
	xdomF2    = 500_001   // F2 datasets: x in [0, 500000]
	xdomF0    = 1_000_001 // F0 datasets: x in [0, 1000000]
)

var (
	seed   = flag.Uint64("seed", 1, "random seed for generators and sketches")
	shards = flag.Int("shards", 1, "shard the F2 throughput run across N worker goroutines")
)

func main() {
	var (
		fig   = flag.Int("fig", 0, "figure to regenerate (2-7)")
		table = flag.String("table", "", "table to regenerate")
		n     = flag.Int("n", 0, "stream size (0 = per-experiment default)")
		all   = flag.Bool("all", false, "run every experiment")
	)
	flag.Parse()

	switch {
	case *all:
		for f := 2; f <= 7; f++ {
			runFig(f, *n)
		}
		for _, t := range []string{"accuracy-f2", "accuracy-f0", "throughput", "greater-than", "multipass", "multipass-f1"} {
			runTable(t, *n)
		}
	case *fig != 0:
		runFig(*fig, *n)
	case *table != "":
		runTable(*table, *n)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runFig(fig, n int) {
	switch fig {
	case 2:
		fig2(orDefault(n, 2_000_000))
	case 3:
		figSpaceVsN(3, 0.15, orDefault(n, 5_000_000))
	case 4:
		figSpaceVsN(4, 0.20, orDefault(n, 5_000_000))
	case 5:
		figSpaceVsN(5, 0.25, orDefault(n, 5_000_000))
	case 6:
		fig6(orDefault(n, 2_000_000))
	case 7:
		fig7(orDefault(n, 5_000_000))
	default:
		fmt.Fprintf(os.Stderr, "corrbench: unknown figure %d\n", fig)
		os.Exit(2)
	}
}

func runTable(table string, n int) {
	switch table {
	case "accuracy-f2":
		accuracyF2(orDefault(n, 1_000_000))
	case "accuracy-f0":
		accuracyF0(orDefault(n, 1_000_000))
	case "throughput":
		throughput(orDefault(n, 1_000_000))
	case "greater-than":
		greaterThanTable()
	case "multipass":
		multipassTable(orDefault(n, 200_000))
	case "multipass-f1":
		multipassF1Table(orDefault(n, 100_000))
	case "sharded-scaling":
		shardedScaling(orDefault(n, 2_000_000))
	case "occupancy":
		occupancyTable(os.Stdout, n)
	default:
		fmt.Fprintf(os.Stderr, "corrbench: unknown table %q\n", table)
		os.Exit(2)
	}
}

func orDefault(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// f2Datasets returns the three Section 5.1 dataset generators.
func f2Datasets(n int) map[string]func() gen.Stream {
	return map[string]func() gen.Stream{
		"uniform": func() gen.Stream { return gen.Uniform(n, xdomF2, ymaxPaper+1, *seed) },
		"zipf1":   func() gen.Stream { return gen.Zipf(n, xdomF2, ymaxPaper+1, 1.0, *seed) },
		"zipf2":   func() gen.Stream { return gen.Zipf(n, xdomF2, ymaxPaper+1, 2.0, *seed) },
	}
}

var f2Order = []string{"uniform", "zipf1", "zipf2"}

func f2Options(eps float64, n int) correlated.Options {
	return correlated.Options{
		Eps: eps, Delta: 0.1, YMax: ymaxPaper,
		MaxStreamLen: uint64(n), MaxX: xdomF2, Seed: *seed,
	}
}

func newF2(eps float64, n int) *correlated.F2Summary {
	s, err := correlated.NewF2Summary(f2Options(eps, n))
	die(err)
	return s
}

// fig2: F2 sketch space versus epsilon (paper Figure 2).
func fig2(n int) {
	fmt.Printf("# Figure 2: F2 summary space (counters) vs epsilon; n=%d, y in [0,1e6], x in [0,500000]\n", n)
	fmt.Println("eps\tdataset\tspace\tstream_tuples")
	for _, eps := range []float64{0.14, 0.16, 0.18, 0.20, 0.22, 0.25} {
		for _, name := range f2Order {
			s := newF2(eps, n)
			feed(f2Datasets(n)[name](), func(x, y uint64) { die(s.Add(x, y)) })
			fmt.Printf("%.2f\t%s\t%d\t%d\n", eps, name, s.Space(), n)
		}
	}
}

// figSpaceVsN: F2 sketch space versus stream size at fixed epsilon
// (paper Figures 3, 4, 5).
func figSpaceVsN(fig int, eps float64, n int) {
	fmt.Printf("# Figure %d: F2 summary space (counters) vs stream size; eps=%.2f\n", fig, eps)
	fmt.Println("n\tdataset\tspace")
	checkpoints := 10
	for _, name := range f2Order {
		s := newF2(eps, n)
		st := f2Datasets(n)[name]()
		step := n / checkpoints
		i := 0
		feed(st, func(x, y uint64) {
			die(s.Add(x, y))
			i++
			if i%step == 0 {
				fmt.Printf("%d\t%s\t%d\n", i, name, s.Space())
			}
		})
	}
}

// f0Datasets returns the four Section 5.2 dataset generators.
func f0Datasets(n int) map[string]func() gen.Stream {
	return map[string]func() gen.Stream{
		"ethernet": func() gen.Stream { return gen.Ethernet(n, *seed) },
		"uniform":  func() gen.Stream { return gen.Uniform(n, xdomF0, ymaxPaper+1, *seed) },
		"zipf1":    func() gen.Stream { return gen.Zipf(n, xdomF0, ymaxPaper+1, 1.0, *seed) },
		"zipf2":    func() gen.Stream { return gen.Zipf(n, xdomF0, ymaxPaper+1, 2.0, *seed) },
	}
}

var f0Order = []string{"ethernet", "uniform", "zipf1", "zipf2"}

func newF0(eps float64, n int, xdom uint64, ymax uint64) *correlated.F0Summary {
	s, err := correlated.NewF0Summary(correlated.Options{
		Eps: eps, Delta: 0.1, YMax: ymax,
		MaxStreamLen: uint64(n), MaxX: xdom, Seed: *seed,
	})
	die(err)
	return s
}

// fig6: F0 sketch space versus epsilon (paper Figure 6). The Ethernet
// trace's small identifier domain (packet sizes) needs far fewer sampling
// levels, reproducing the separated curve of the paper.
func fig6(n int) {
	fmt.Printf("# Figure 6: F0 summary space (sample tuples) vs epsilon; n=%d\n", n)
	fmt.Println("eps\tdataset\tspace\tstream_tuples")
	for _, eps := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30} {
		for _, name := range f0Order {
			xdom := uint64(xdomF0)
			ymax := uint64(ymaxPaper)
			if name == "ethernet" {
				xdom = gen.EthernetXDomain
				ymax = uint64(n) // millisecond timestamps
			}
			s := newF0(eps, n, xdom, ymax)
			feed(f0Datasets(n)[name](), func(x, y uint64) { die(s.Add(x, y)) })
			fmt.Printf("%.2f\t%s\t%d\t%d\n", eps, name, s.Space(), n)
		}
	}
}

// fig7: F0 sketch space versus stream size at eps=0.1 (paper Figure 7).
func fig7(n int) {
	fmt.Printf("# Figure 7: F0 summary space (sample tuples) vs stream size; eps=0.1\n")
	fmt.Println("n\tdataset\tspace")
	checkpoints := 10
	for _, name := range []string{"uniform", "zipf1", "zipf2"} {
		s := newF0(0.1, n, xdomF0, ymaxPaper)
		st := f0Datasets(n)[name]()
		step := n / checkpoints
		i := 0
		feed(st, func(x, y uint64) {
			die(s.Add(x, y))
			i++
			if i%step == 0 {
				fmt.Printf("%d\t%s\t%d\n", i, name, s.Space())
			}
		})
	}
}

// accuracyF2 reproduces the prose claim of Section 5.1: relative error
// within eps for the large majority of query cutoffs.
func accuracyF2(n int) {
	fmt.Printf("# Table A (Sec 5.1 prose): correlated F2 relative error vs eps; n=%d\n", n)
	fmt.Println("eps\tdataset\tmean_rel_err\tmax_rel_err\twithin_eps")
	cuts := cutoffs()
	for _, eps := range []float64{0.15, 0.20, 0.25} {
		for _, name := range f2Order {
			s := newF2(eps, n)
			base := exact.New()
			feed(f2Datasets(n)[name](), func(x, y uint64) {
				die(s.Add(x, y))
				base.Add(x, y)
			})
			var sum, max float64
			within := 0
			for _, c := range cuts {
				got, err := s.QueryLE(c)
				die(err)
				want := base.F2(c)
				rel := relErr(got, want)
				sum += rel
				if rel > max {
					max = rel
				}
				if rel <= eps {
					within++
				}
			}
			fmt.Printf("%.2f\t%s\t%.4f\t%.4f\t%d/%d\n",
				eps, name, sum/float64(len(cuts)), max, within, len(cuts))
		}
	}
}

// accuracyF0 does the same for correlated distinct counts (Section 5.2).
func accuracyF0(n int) {
	fmt.Printf("# Table C (Sec 5.2 prose): correlated F0 relative error vs eps; n=%d\n", n)
	fmt.Println("eps\tdataset\tmean_rel_err\tmax_rel_err\twithin_eps")
	cuts := cutoffs()
	for _, eps := range []float64{0.10, 0.20, 0.30} {
		for _, name := range []string{"uniform", "zipf1", "zipf2"} {
			s := newF0(eps, n, xdomF0, ymaxPaper)
			base := exact.New()
			feed(f0Datasets(n)[name](), func(x, y uint64) {
				die(s.Add(x, y))
				base.Add(x, y)
			})
			var sum, max float64
			within := 0
			for _, c := range cuts {
				got, err := s.QueryLE(c)
				die(err)
				want := base.F0(c)
				rel := relErr(got, want)
				sum += rel
				if rel > max {
					max = rel
				}
				if rel <= eps {
					within++
				}
			}
			fmt.Printf("%.2f\t%s\t%.4f\t%.4f\t%d/%d\n",
				eps, name, sum/float64(len(cuts)), max, within, len(cuts))
		}
	}
}

// throughput reports per-record processing rates (Section 5.1 prose).
// With -shards > 1 the F2 rows run through the sharded ingest engine
// instead of a single summary.
func throughput(n int) {
	fmt.Printf("# Table B (Sec 5.1 prose): update throughput; n=%d, eps=0.2, shards=%d\n", n, *shards)
	fmt.Println("summary\tdataset\tadds_per_sec")
	for _, name := range f2Order {
		st := f2Datasets(n)[name]()
		label := "F2"
		var el float64
		if *shards > 1 {
			label = fmt.Sprintf("F2/sharded%d", *shards)
			eng, err := shard.NewF2(f2Options(0.2, n), *shards)
			die(err)
			start := time.Now()
			feed(st, func(x, y uint64) { die(eng.Add(x, y)) })
			die(eng.Flush())
			el = time.Since(start).Seconds()
			die(eng.Close())
		} else {
			s := newF2(0.2, n)
			start := time.Now()
			feed(st, func(x, y uint64) { die(s.Add(x, y)) })
			el = time.Since(start).Seconds()
		}
		fmt.Printf("%s\t%s\t%.0f\n", label, name, float64(n)/el)
	}
	for _, name := range f0Order {
		xdom := uint64(xdomF0)
		ymax := uint64(ymaxPaper)
		if name == "ethernet" {
			xdom, ymax = gen.EthernetXDomain, uint64(n)
		}
		s := newF0(0.1, n, xdom, ymax)
		st := f0Datasets(n)[name]()
		start := time.Now()
		feed(st, func(x, y uint64) { die(s.Add(x, y)) })
		el := time.Since(start).Seconds()
		fmt.Printf("F0\t%s\t%.0f\n", name, float64(n)/el)
	}
}

// greaterThanTable demonstrates Theorem 6/7: single-pass success collapses
// with its space budget; multipass stays exact with polylog space.
func greaterThanTable() {
	const bits = 256
	const trials = 50
	fmt.Printf("# Theorem 6/7 demo: GREATER-THAN on %d-bit inputs, %d trials\n", bits, trials)
	fmt.Println("protocol\tbudget_blocks\tcorrect\tpasses\tspace_counters")
	rng := hash.New(*seed)
	instances := make([][2][]bool, trials)
	for t := range instances {
		a := randomBits(bits, rng)
		b := append([]bool(nil), a...)
		d := 16 + int(rng.Uint64n(bits-32))
		b[d] = !b[d]
		for i := d + 1; i < bits; i++ {
			b[i] = rng.Uint64()&1 == 1
		}
		instances[t] = [2][]bool{a, b}
	}
	for _, budget := range []int{4, 16, 64, 256} {
		right := 0
		var space int64
		for t, inst := range instances {
			res := turnstile.SinglePassGT(inst[0], inst[1], budget, 500+uint64(t))
			if res.Comparison == turnstile.CompareBits(inst[0], inst[1]) {
				right++
			}
			space = res.Space
		}
		fmt.Printf("single-pass\t%d\t%d/%d\t1\t%d\n", budget, right, trials, space)
	}
	right := 0
	var passes int
	var space int64
	for t, inst := range instances {
		res, err := turnstile.SolveGreaterThan(inst[0], inst[1], 0.3, 0.05, 900+uint64(t))
		die(err)
		if res.Comparison == turnstile.CompareBits(inst[0], inst[1]) {
			right++
		}
		passes, space = res.Passes, res.Space
	}
	fmt.Printf("multipass\t-\t%d/%d\t%d\t%d\n", right, trials, passes, space)
}

// multipassTable reports MULTIPASS accuracy/passes/space on ±-weighted
// streams (Theorem 7).
func multipassTable(n int) {
	fmt.Printf("# Theorem 7 demo: MULTIPASS on turnstile streams; n=%d with 40%% deletions\n", n)
	fmt.Println("eps\tmax_rel_err\tallowed\tpasses\tspace_counters")
	const ymax = 1<<16 - 1
	rng := hash.New(*seed + 7)
	tape := correlated.NewTape(nil)
	base := exact.New()
	for i := 0; i < n/5; i++ {
		y := rng.Uint64n(ymax + 1)
		var xs [5]uint64
		for k := 0; k < 5; k++ {
			xs[k] = rng.Uint64n(10_000)
			tape.Append(correlated.Record{X: xs[k], Y: y, W: 1})
			base.AddWeighted(xs[k], y, 1)
		}
		for k := 0; k < 2; k++ {
			tape.Append(correlated.Record{X: xs[k], Y: y, W: -1})
			base.AddWeighted(xs[k], y, -1)
		}
	}
	for _, eps := range []float64{0.10, 0.20, 0.30} {
		res, err := correlated.RunMultipass(tape, correlated.MultipassConfig{
			Eps: eps, Delta: 0.05, YMax: ymax, Seed: *seed,
		})
		die(err)
		var maxRel float64
		for _, c := range []uint64{1 << 10, 1 << 12, 1 << 14, ymax} {
			rel := relErr(res.Query(c), base.F2(c))
			if rel > maxRel {
				maxRel = rel
			}
		}
		allowed := (1+eps)*(1+eps) - 1
		fmt.Printf("%.2f\t%.4f\t%.4f\t%d\t%d\n", eps, maxRel, allowed, res.Passes, res.Space)
	}
}

// multipassF1Table runs MULTIPASS with the Cauchy L1 estimator: correlated
// first moment of net weights over a turnstile stream.
func multipassF1Table(n int) {
	fmt.Printf("# Theorem 7 demo (F1 variant): MULTIPASS with the Cauchy L1 estimator; n=%d\n", n)
	fmt.Println("eps\tmax_rel_err\tallowed\tpasses\tspace_counters")
	const ymax = 1<<12 - 1
	rng := hash.New(*seed + 11)
	tape := correlated.NewTape(nil)
	base := exact.New()
	for i := 0; i < n/3; i++ {
		y := rng.Uint64n(ymax + 1)
		x := rng.Uint64n(5_000)
		tape.Append(correlated.Record{X: x, Y: y, W: 2})
		base.AddWeighted(x, y, 2)
		tape.Append(correlated.Record{X: x, Y: y, W: -1})
		base.AddWeighted(x, y, -1)
	}
	for _, eps := range []float64{0.20, 0.30} {
		res, err := correlated.RunMultipass(tape, correlated.MultipassConfig{
			Eps: eps, Delta: 0.05, YMax: ymax, F: correlated.MultipassF1, Seed: *seed,
		})
		die(err)
		var maxRel float64
		for _, c := range []uint64{1 << 8, 1 << 10, ymax} {
			rel := relErr(res.Query(c), base.Fk(c, 1))
			if rel > maxRel {
				maxRel = rel
			}
		}
		allowed := (1+eps)*(1+eps) - 1
		fmt.Printf("%.2f\t%.4f\t%.4f\t%d\t%d\n", eps, maxRel, allowed, res.Passes, res.Space)
	}
}

// shardedScaling sweeps the sharded F2 engine over P = 1, 2, 4, 8 on the
// uniform dataset and reports ingest throughput plus a query sanity
// check. Scaling past P=1 requires at least P+1 free cores.
func shardedScaling(n int) {
	fmt.Printf("# Sharded ingest scaling: F2, uniform dataset, eps=0.2, n=%d, GOMAXPROCS=%d\n",
		n, runtime.GOMAXPROCS(0))
	fmt.Println("shards\tadds_per_sec\tquery_le_half")
	for _, p := range []int{1, 2, 4, 8} {
		eng, err := shard.NewF2(f2Options(0.2, n), p)
		die(err)
		st := gen.Uniform(n, xdomF2, ymaxPaper+1, *seed)
		start := time.Now()
		feed(st, func(x, y uint64) { die(eng.Add(x, y)) })
		die(eng.Flush())
		el := time.Since(start).Seconds()
		est, err := eng.QueryLE(ymaxPaper / 2)
		die(err)
		die(eng.Close())
		fmt.Printf("%d\t%.0f\t%.3g\n", p, float64(n)/el, est)
	}
}

func cutoffs() []uint64 {
	var out []uint64
	for i := 1; i <= 10; i++ {
		out = append(out, uint64(i)*ymaxPaper/10)
	}
	return out
}

func feed(st gen.Stream, fn func(x, y uint64)) {
	for {
		t, ok := st.Next()
		if !ok {
			return
		}
		fn(t.X, t.Y)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func randomBits(n int, rng *hash.RNG) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Uint64()&1 == 1
	}
	return out
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrbench: %v\n", err)
		os.Exit(1)
	}
}
