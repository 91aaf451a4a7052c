package sketch

import (
	"math"
	"sort"

	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/slab"
)

// Fk estimates the k-th frequency moment for k > 2 in the style of
// Indyk–Woodruff: identifiers are geometrically sub-sampled into levels
// (item x reaches level j with probability 2^-j, decided by one shared
// tabulation hash so sketches merge consistently), each level maintains a
// CountSketch plus a bounded candidate set of potentially-heavy items, and
// the estimate combines (a) the point-estimated contributions of the
// candidates found at level 0 with (b) a Horvitz–Thompson residual from the
// shallowest level whose candidate set never overflowed — at that level the
// candidate set contains *every* sampled item, so weighting each
// non-heavy contribution by 2^j is an unbiased estimate of the light part.
//
// This is the standard practical rendition of the level-set algorithm: the
// skeleton (sub-sampling + per-level heavy hitters) follows the paper [22]
// it builds on, while the constants are empirical rather than worst-case,
// exactly as in every published Fk implementation (the root package's
// doc.go, "Accuracy guarantees", says the same of every summary).
type Fk struct {
	maker  *FkMaker
	levels []fkLevel
}

type fkLevel struct {
	// cs and cand are allocated on first use: a bucket sketch inside the
	// core structure typically sees items at only the first few
	// sub-sampling levels, and eager allocation of all tables would
	// dominate both time and space.
	cs      *CountSketch
	cand    map[uint64]int64 // item -> weight added since tracking began
	evicted bool             // true once any candidate has been dropped
	// Level-0 cheap-estimate state.
	running   float64 // sum over candidates of (tracked count)^k
	untracked int64   // weight added while not tracked
}

// FkMaker creates Fk sketches sharing sampling and CountSketch hashes.
type FkMaker struct {
	k        int
	levels   int
	trackCap int
	csMaker  *F2Maker
	sampleH  *hash.Tab64
	slab     slab.Slab[Fk] // the sketches Alloc hands out
}

// NewFkMaker returns a Maker for Fk sketches.
//
//	k        — the moment order (k >= 2; use F2Maker directly for k = 2).
//	levels   — number of sub-sampling levels (log2 of the largest distinct
//	           item count expected; 32 is a safe default).
//	trackCap — candidate-set capacity per level.
//	csW, csD — CountSketch geometry per level.
func NewFkMaker(k, levels, trackCap, csW, csD int, rng *hash.RNG) *FkMaker {
	if k < 2 {
		panic("sketch: Fk needs k >= 2")
	}
	if levels < 1 || trackCap < 4 {
		panic("sketch: Fk needs levels >= 1 and trackCap >= 4")
	}
	return &FkMaker{
		k:        k,
		levels:   levels,
		trackCap: trackCap,
		csMaker:  NewF2Maker(csW, csD, rng),
		sampleH:  hash.NewTab64(rng),
	}
}

// NewFkMakerError sizes an Fk maker for target relative error upsilon with
// failure probability gamma, using practical constants.
func NewFkMakerError(k int, upsilon, gamma float64, rng *hash.RNG) *FkMaker {
	if upsilon <= 0 || upsilon >= 1 {
		panic("sketch: upsilon must be in (0,1)")
	}
	cap := int(math.Ceil(16 / upsilon))
	if cap < 64 {
		cap = 64
	}
	w := int(math.Ceil(8 / (upsilon * upsilon)))
	if w < 64 {
		w = 64
	}
	d := int(math.Ceil(math.Log2(1/gamma) / 2))
	if d < 3 {
		d = 3
	}
	if d > 7 {
		d = 7
	}
	return NewFkMaker(k, 32, cap, w, d, rng)
}

// K returns the moment order.
func (m *FkMaker) K() int { return m.k }

// New implements Maker.
func (m *FkMaker) New() Sketch {
	return &Fk{maker: m, levels: make([]fkLevel, m.levels)}
}

// Alloc implements Maker. A slot keeps its slice of levels across Free,
// every level back to untouched.
func (m *FkMaker) Alloc() uint32 {
	h := m.slab.Alloc()
	if f := m.slab.At(h); f.levels == nil {
		*f = Fk{maker: m, levels: make([]fkLevel, m.levels)}
	}
	return h
}

// At implements Maker.
func (m *FkMaker) At(h uint32) Sketch { return m.slab.At(h) }

// Free implements Maker.
func (m *FkMaker) Free(h uint32) {
	m.release(m.slab.At(h))
	m.slab.Free(h)
}

// Recycle implements Recycler: the level sketches of an Fk from New give their
// counters back to the CountSketch maker's arena.
func (m *FkMaker) Recycle(sk Sketch) {
	if f, ok := sk.(*Fk); ok && f.maker == m {
		m.release(f)
	}
}

// release recycles f's level sketches and leaves every level untouched.
func (m *FkMaker) release(f *Fk) {
	for j := range f.levels {
		if cs := f.levels[j].cs; cs != nil {
			m.csMaker.Recycle(cs)
		}
	}
	clear(f.levels)
}

// ensure allocates level j's tables on first use.
func (f *Fk) ensure(j int) *fkLevel {
	lv := &f.levels[j]
	if lv.cs == nil {
		lv.cs = f.maker.csMaker.New().(*CountSketch)
		lv.cand = make(map[uint64]int64)
	}
	return lv
}

func (m *FkMaker) powK(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Pow(v, float64(m.k))
}

// Add implements Sketch. Fk through the general reduction is insert-only;
// negative weights are clamped away by the public API before they get here.
func (f *Fk) Add(x uint64, w int64) {
	deepest := f.maker.sampleH.Level(x)
	if deepest >= f.maker.levels {
		deepest = f.maker.levels - 1
	}
	for j := 0; j <= deepest; j++ {
		f.addLevel(j, x, w)
	}
}

func (f *Fk) addLevel(j int, x uint64, w int64) {
	lv := f.ensure(j)
	lv.cs.Add(x, w)
	if c, ok := lv.cand[x]; ok {
		lv.running -= f.maker.powK(float64(c))
		lv.cand[x] = c + w
		lv.running += f.maker.powK(float64(c + w))
		return
	}
	// Allow the map to grow to twice the capacity, then prune the
	// lightest half by CountSketch estimate; this amortizes the O(cap·d)
	// prune over cap insertions.
	if len(lv.cand) >= 2*f.maker.trackCap {
		f.prune(lv)
	}
	lv.cand[x] = w
	lv.running += f.maker.powK(float64(w))
}

// prune drops the lightest candidates until trackCap remain. Ties in the
// estimate break on x, so which candidates survive — and with them the
// sketch's image — does not depend on map iteration order.
func (f *Fk) prune(lv *fkLevel) {
	type ce struct {
		x   uint64
		est float64
	}
	ents := make([]ce, 0, len(lv.cand))
	for x := range lv.cand {
		ents = append(ents, ce{x, lv.cs.EstimateItem(x)})
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].est != ents[j].est {
			return ents[i].est > ents[j].est
		}
		return ents[i].x < ents[j].x
	})
	for _, e := range ents[f.maker.trackCap:] {
		c := lv.cand[e.x]
		lv.running -= f.maker.powK(float64(c))
		lv.untracked += c
		delete(lv.cand, e.x)
	}
	lv.evicted = true
}

// CheapEstimate implements CheapEstimator: a constant-time lower-bound
// style approximation used for bucket-closing decisions in the core
// structure — the running candidate contribution at level 0 plus one unit
// per untracked occurrence.
func (f *Fk) CheapEstimate() float64 {
	lv := &f.levels[0]
	return lv.running + float64(lv.untracked)
}

// Estimate implements Sketch.
//
// If the level-0 candidate set never overflowed it contains every distinct
// item with its exact count, so the estimate is exact. Otherwise the
// estimate splits into a heavy part and a light part:
//
//   - heavy: level-0 candidates whose point estimate clears a noise
//     threshold of 4·sqrt(F̂2/width) — four standard deviations of the
//     CountSketch estimation noise, so essentially no light item passes
//     spuriously and no selection bias inflates the sum;
//   - light: at the shallowest level j* whose candidate set never
//     overflowed, the tracked counts are the *exact* frequencies of every
//     sampled item, so 2^j* times the sum of their k-th powers (heavy
//     items excluded) is an unbiased Horvitz–Thompson estimate of the
//     light contribution, with no CountSketch noise at all.
func (f *Fk) Estimate() float64 {
	m := f.maker
	lv0 := &f.levels[0]
	if !lv0.evicted {
		exact := 0.0
		for _, c := range lv0.cand {
			exact += m.powK(float64(c))
		}
		return exact
	}
	thr := 4 * math.Sqrt(lv0.cs.Estimate()/float64(m.csMaker.width))
	heavy := 0.0
	heavySet := make(map[uint64]struct{})
	for x, c := range lv0.cand {
		est := lv0.cs.EstimateItem(x)
		if lb := float64(c); est < lb {
			est = lb
		}
		if est >= thr {
			heavySet[x] = struct{}{}
			heavy += m.powK(est)
		}
	}
	jstar := -1
	for j := 1; j < len(f.levels); j++ {
		if !f.levels[j].evicted {
			jstar = j
			break
		}
	}
	if jstar < 0 {
		// Every level overflowed (essentially impossible with 32
		// levels); fall back to the deepest level's tracked counts.
		jstar = len(f.levels) - 1
	}
	resid := 0.0
	for x, c := range f.levels[jstar].cand {
		if _, isHeavy := heavySet[x]; isHeavy {
			continue
		}
		resid += m.powK(float64(c))
	}
	return heavy + resid*math.Pow(2, float64(jstar))
}

// EstimateItem implements ItemEstimator via the level-0 CountSketch,
// reconciled with the exact tracked count when the item is a candidate.
func (f *Fk) EstimateItem(x uint64) float64 {
	lv0 := &f.levels[0]
	if lv0.cs == nil {
		return 0
	}
	est := lv0.cs.EstimateItem(x)
	if c, ok := lv0.cand[x]; ok && float64(c) > est {
		est = float64(c)
	}
	return est
}

// Candidates implements CandidateTracker: the level-0 candidate set,
// which contains every heavy identifier with overwhelming probability.
func (f *Fk) Candidates() []uint64 {
	lv0 := &f.levels[0]
	out := make([]uint64, 0, len(lv0.cand))
	for x := range lv0.cand {
		out = append(out, x)
	}
	return out
}

// Merge implements Sketch. The other sketch may come from the same maker
// or from an equivalent one (identical hash functions and geometry).
func (f *Fk) Merge(other Sketch) error {
	o, ok := other.(*Fk)
	if !ok || !f.maker.equivalent(o.maker) {
		return ErrIncompatible
	}
	for j := range f.levels {
		olv := &o.levels[j]
		if olv.cs == nil && olv.untracked == 0 && !olv.evicted {
			continue // other side never touched this level
		}
		lv := f.ensure(j)
		if olv.cs != nil {
			if err := lv.cs.Merge(olv.cs); err != nil {
				return err
			}
		}
		for x, c := range olv.cand {
			lv.cand[x] += c
		}
		lv.untracked += olv.untracked
		lv.evicted = lv.evicted || olv.evicted
		if len(lv.cand) > 2*f.maker.trackCap {
			f.prune(lv)
		}
		// Rebuild the running sum from the merged counts.
		lv.running = 0
		for _, c := range lv.cand {
			lv.running += f.maker.powK(float64(c))
		}
	}
	return nil
}

// Size implements Sketch. Unallocated levels cost nothing.
func (f *Fk) Size() int {
	n := 0
	for j := range f.levels {
		if f.levels[j].cs != nil {
			n += f.levels[j].cs.Size() + len(f.levels[j].cand)
		}
	}
	return n
}
