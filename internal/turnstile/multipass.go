package turnstile

import (
	"errors"
	"math"
	"sort"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/sketch"
)

// MultipassF selects which member of the paper's Section 4 function class
// f_τ = Σ_j g(j(τ)) MULTIPASS estimates.
type MultipassF int

const (
	// MultipassF2 estimates g(k) = k²: the second moment of net weights.
	MultipassF2 MultipassF = iota
	// MultipassF1 estimates g(k) = |k|: the first moment of net weights,
	// via Indyk's Cauchy-projection sketch.
	MultipassF1
)

// MultipassConfig parameterizes the MULTIPASS algorithm (the paper's
// Algorithm 4) over net weights.
type MultipassConfig struct {
	// Eps is the target relative error ε.
	Eps float64
	// Delta is the failure probability δ; each whole-stream probe runs
	// at δ' = δ/(ymax+1).
	Delta float64
	// YMax bounds the y values; rounded up to 2^β − 1.
	YMax uint64
	// F selects the aggregate (default MultipassF2).
	F MultipassF
	// Seed fixes the random string of the underlying estimator A, which
	// Algorithm 4 requires to be identical across passes.
	Seed uint64
}

// MultipassResult is the output of MULTIPASS: the positions
// p(0), ..., p(r) where f first reaches each power of (1+ε). A position
// equal to YMax+1 means the corresponding power is never reached.
type MultipassResult struct {
	Eps    float64
	YMax   uint64
	P      []uint64
	Passes int
	Space  int64 // counters held concurrently during the widest pass
}

// ErrMonotone reports a use of MULTIPASS on data where the prefix
// aggregate decreased — see RunMultipass.
var ErrMonotone = errors.New("turnstile: prefix aggregate must be non-decreasing in y")

// RunMultipass executes Algorithm 4 for f = F2 of the net weights among
// records with y <= p. The correctness guarantee (as in the paper's
// Theorem 7 proof, which uses f_τ >= f_{p(i)} for τ >= p(i)) requires f_p
// to be non-decreasing in p; deletions are fine as long as they never pull
// a prefix aggregate below an earlier prefix (e.g. deletions co-located in
// y with their insertions, or the GREATER-THAN position encoding).
func RunMultipass(tape *Tape, cfg MultipassConfig) (*MultipassResult, error) {
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		return nil, errors.New("turnstile: Eps must be in (0,1)")
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, errors.New("turnstile: Delta must be in (0,1)")
	}
	ymax := dyadic.RoundYMax(cfg.YMax)
	if ymax == 0 {
		return nil, errors.New("turnstile: YMax must be positive")
	}
	beta := 0
	for p := uint64(1); p-1 < ymax; p <<= 1 {
		beta++
	}

	// One-sided (ε, δ')-estimator: with a two-sided (1±υ) sketch at
	// υ = ε/3, est/(1−υ) lands in [f, (1+ε)f].
	upsilon := cfg.Eps / 3
	gamma := cfg.Delta / float64(ymax+1)
	// skSize is the counters one probe sketch can grow to. It comes from
	// the maker's geometry: an empty CountSketch stores nothing yet.
	var maker sketch.Maker
	var skSize int
	switch cfg.F {
	case MultipassF2:
		m := sketch.NewF2MakerError(upsilon, gamma, hash.New(cfg.Seed))
		maker, skSize = m, m.Width()*m.Depth()
	case MultipassF1:
		maker = sketch.NewL1MakerError(upsilon, gamma, hash.New(cfg.Seed))
		skSize = maker.New().Size()
	default:
		return nil, errors.New("turnstile: unknown MultipassF")
	}
	oneSided := func(est float64) float64 { return est / (1 - upsilon) }

	res := &MultipassResult{Eps: cfg.Eps, YMax: ymax}

	// Pass 1: estimate f at ymax.
	top := maker.New()
	tape.Scan(func(r Record) { top.Add(r.X, r.W) })
	res.Passes++
	fTop := oneSided(top.Estimate())
	if fTop <= 0 {
		// The whole stream cancels: every threshold position is
		// "never reached".
		res.P = []uint64{ymax + 1}
		res.Space = int64(top.Size())
		return res, nil
	}
	r := int(math.Ceil(math.Log(fTop) / math.Log(1+cfg.Eps)))
	if r < 0 {
		r = 0
	}

	// Initialize every binary search at the midpoint (Algorithm 4
	// line 6) and run the searches in lock-step: each tree depth j is
	// one pass probing all r+1 current positions at once.
	p := make([]uint64, r+1)
	for i := range p {
		p[i] = (ymax - 1) / 2
	}
	thr := make([]float64, r+1)
	for i := range thr {
		thr[i] = math.Pow(1+cfg.Eps, float64(i))
	}
	for j := 2; j <= beta; j++ {
		off := (ymax + 1) >> uint(j)
		ests, segs := probePrefixes(tape, maker, p)
		res.Passes++
		if sp := int64((segs + 1) * skSize); sp > res.Space {
			res.Space = sp
		}
		for i := range p {
			if oneSided(ests[i]) > thr[i] {
				p[i] -= off
			} else {
				p[i] += off
			}
		}
	}
	// Final correction (Algorithm 4 line 11) needs one more probe at the
	// settled positions.
	ests, _ := probePrefixes(tape, maker, p)
	res.Passes++
	for i := range p {
		if oneSided(ests[i]) < thr[i] {
			p[i]++
		}
	}
	res.P = p
	return res, nil
}

// probePrefixes returns, for each position p[i], the sketch estimate of f
// over records with y <= p[i], using a single scan: records are bucketed
// into the segments between sorted positions, and prefix estimates are
// recovered by cumulative merging (the sketches are linear and share
// seeds, so merging segment sketches equals sketching the prefix).
func probePrefixes(tape *Tape, maker sketch.Maker, ps []uint64) ([]float64, int) {
	uniq := append([]uint64(nil), ps...)
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	n := 0
	for i, v := range uniq {
		if i == 0 || uniq[n-1] != v {
			uniq[n] = v
			n++
		}
	}
	uniq = uniq[:n]

	segs := make([]sketch.Sketch, n)
	for i := range segs {
		segs[i] = maker.New()
	}
	tape.Scan(func(r Record) {
		// First segment whose upper bound covers r.Y.
		idx := sort.Search(n, func(i int) bool { return uniq[i] >= r.Y })
		if idx < n {
			segs[idx].Add(r.X, r.W)
		}
	})
	prefixEst := make(map[uint64]float64, n)
	acc := maker.New()
	for i := 0; i < n; i++ {
		// Same-maker merges cannot fail.
		_ = acc.Merge(segs[i])
		prefixEst[uniq[i]] = acc.Estimate()
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = prefixEst[p]
	}
	return out, n
}

// Query implements the QUERY-RESPONSE algorithm: the largest i with
// p(i) <= tau determines the answer (1+ε)^i; if no position qualifies the
// estimate is 0.
func (m *MultipassResult) Query(tau uint64) float64 {
	best := -1
	for i, pos := range m.P {
		if pos <= tau && i > best {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return math.Pow(1+m.Eps, float64(best))
}

// FirstPositive returns the smallest y at which f becomes positive
// (position p(0)), or YMax+1 if f never does. The GREATER-THAN protocol
// reads the first differing bit off this value.
func (m *MultipassResult) FirstPositive() uint64 {
	if len(m.P) == 0 {
		return m.YMax + 1
	}
	return m.P[0]
}
