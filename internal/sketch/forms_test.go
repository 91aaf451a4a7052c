package sketch

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// A CountSketch is stored in one of many states — an items table hashed at
// four, eight or sixteen bytes a slot or packed into a run, or a dense array at
// one, two or eight bytes a counter or packed into four bits — and every one of them must answer as the state
// every image and Size describe: a hashed table of sixteen-byte slots that is
// never packed, promoting to an all-int64 array. TestCountSketchFormsAgree drives
// sketches through seeded random operation sequences beside a twin lifted to
// that state after every step and beside a model of what both were fed, and
// after every step also holds the maker's books to a walk of what it has out.

// twinOf returns a maker with m's geometry, row hashes and promotion point, and
// an arena of its own: the maker of the twins.
func twinOf(m *F2Maker) *F2Maker {
	twin := NewF2Maker(m.width, m.depth, hash.New(0))
	twin.rowH, twin.itemsMax = m.rowH, m.itemsMax
	return twin
}

// model is what a register was fed: the net frequencies, the counters they
// hash to — each row's polynomial evaluated on its own, not through Slots —
// and the highest slot rung a pair stored since the last Reset has needed.
type model struct {
	freq map[uint64]int64
	ctr  []int64
	rung uint8
}

func newModel(m *F2Maker) model {
	return model{freq: map[uint64]int64{}, ctr: make([]int64, m.width*m.depth)}
}

func (md *model) add(m *F2Maker, x uint64, w int64) {
	if f := md.freq[x] + w; f == 0 {
		delete(md.freq, x)
	} else {
		md.freq[x] = f
		md.rung = max(md.rung, rungFor(x, f))
	}
	for i, h := range m.rowH {
		v := hash.Reduce61(h.Hash(x), uint64(2*m.width))
		md.ctr[i*m.width+int(v>>1)] += (int64(v&1)*2 - 1) * w
	}
}

// merge adds o's pairs, one add each, as Merge does. o may be md.
func (md *model) merge(m *F2Maker, o *model) {
	for x, f := range maps.Clone(o.freq) {
		md.add(m, x, f)
	}
}

// image is the image of a sketch of m holding what the model holds, in the
// given form.
func (md *model) image(m *F2Maker, dense bool) []byte {
	if dense {
		return denseImage(m, md.ctr)
	}
	pairs := make([]xf, 0, len(md.freq))
	for x, f := range md.freq {
		pairs = append(pairs, xf{x, f})
	}
	slices.SortFunc(pairs, func(a, b xf) int { return cmp.Compare(a.x, b.x) })
	return itemsImage(m, pairs...)
}

// register is a sketch under test, its twin and their model.
type register struct {
	a, r *CountSketch
	model
	// huge marks values that have left the range where float64 row sums are
	// exact — weights of 2^31 and up, or counters merges have taken past 2^20
	// (whose products with the next update do): a dense sketch is then held to
	// the model's counters alone, and its merges are re-summed.
	huge         bool
	xTier, wTier uint64 // the bands the generator draws its identifiers and weights from
}

func newRegister(m, twin *F2Maker) *register {
	return &register{a: m.New().(*CountSketch), r: twin.New().(*CountSketch), model: newModel(m)}
}

func (p *register) add(x uint64, w int64) {
	p.a.Add(x, w)
	p.r.Add(x, w)
	p.model.add(p.a.maker, x, w)
}

func (p *register) addSlots(x uint64, w int64) {
	slots := p.a.maker.Slots(x, nil)
	p.a.AddSlots(slots, w)
	p.r.AddSlots(slots, w)
	p.model.add(p.a.maker, x, w)
}

// settle marks the register huge once its counters reach 2^20.
func (p *register) settle() {
	p.huge = p.huge || slices.ContainsFunc(p.ctr, func(v int64) bool { return v >= 1<<20 || v <= -1<<20 })
}

// merge folds q (which may be p) into p. A dense receiver adds an items-form
// operand pair by pair in table order, and once huge its incremental row sums
// round by that order, which a packed run and a hashed table do not share: there
// both sides are re-summed, as a restart does — unless the operand holds no
// pair, and the receiver, which may be packed, is as it was.
func (p *register) merge(t *testing.T, q *register) {
	t.Helper()
	items := !q.a.dense && q.a.n > 0
	if err := p.a.Merge(q.a); err != nil {
		t.Fatal(err)
	}
	if err := p.r.Merge(q.r); err != nil {
		t.Fatal(err)
	}
	p.model.merge(p.a.maker, &q.model)
	p.huge = p.huge || q.huge
	if p.settle(); items && p.r.dense && p.huge {
		p.a.sumSquares()
		p.r.sumSquares()
	}
}

// check lifts the twin to the widest storage and fails unless sketch, twin and
// model agree on everything a caller can see, and the sketch's storage is what
// its values and its history call for.
func (p *register) check(t *testing.T, step string) {
	t.Helper()
	a, r, m := p.a, p.r, p.a.maker
	for r.dense && r.cw < 8 {
		r.widen()
	}
	for r.step != 0 && r.rung < slot16 {
		r.widenTable()
	}
	sameSketch(t, step, a, r)
	img, _ := a.MarshalBinary()
	if !bytes.Equal(img, p.image(m, a.dense)) {
		t.Fatalf("%s: image differs from the model's (dense=%v, %d pairs, model %d)", step, a.dense, a.n, len(p.freq))
	}
	if a.dense {
		if a.cw == 0 {
			checkFrame(t, step, a, p.ctr)
		} else if cw := widthFor(p.ctr); a.cw < cw || a.Bytes() != int(a.cw)*m.width*m.depth+8*m.depth {
			t.Fatalf("%s: %d bytes a counter, the counters need %d; Bytes %d", step, a.cw, cw, a.Bytes())
		}
		if p.settle(); p.huge {
			return
		}
		// A float64 sum of squared integers below 2^53 is exact in every order.
		rows := make([]float64, m.depth)
		for i := range rows {
			for _, v := range p.ctr[i*m.width : (i+1)*m.width] {
				rows[i] += float64(v) * float64(v)
			}
		}
		if !slices.Equal(rows, a.rowF2()) {
			t.Fatalf("%s: row sums %v, the model's counters square to %v", step, a.rowF2(), rows)
		}
		return
	}
	f2 := new(big.Int)
	for x, f := range p.freq {
		f2.Add(f2, new(big.Int).Mul(big.NewInt(f), big.NewInt(f)))
		if got := a.EstimateItem(x); got != float64(f) {
			t.Fatalf("%s: EstimateItem(%d) = %v, model %d", step, x, got, f)
		}
	}
	got := new(big.Int).Lsh(new(big.Int).SetUint64(a.f2hi()), 64)
	if got.Add(got, new(big.Int).SetUint64(a.f2lo)); got.Cmp(f2) != 0 {
		t.Fatalf("%s: items Σf² = %v, model %v", step, got, f2)
	}
	if want, _ := new(big.Float).SetInt(f2).Float64(); math.Abs(a.Estimate()-want) > want*0x1p-52 {
		t.Fatalf("%s: items Estimate %v, model %v", step, a.Estimate(), want)
	}
	if b := a.ThresholdBudget(1 << 40); b > int64(m.itemsMax-int(a.n)) {
		t.Fatalf("%s: budget %d reaches past the %d pairs left before promotion", step, b, m.itemsMax-int(a.n))
	}
	// The width is the history's: the highest rung a stored pair has needed
	// since the last Reset.
	if a.rung != p.rung {
		t.Fatalf("%s: %d-byte slots, the history says %d", step, 4<<a.rung, 4<<p.rung)
	}
	if !packed(a) {
		if s := a.slots(); (s != 0 && (s != tableFor(s*3/4) || s < tableFor(int(a.n)))) || a.Bytes() != s*4<<a.rung+hiBytes(a.rung, s) {
			t.Fatalf("%s: a hashed table of %d slots of %d bytes holds %d bytes", step, s, 4<<a.rung, a.Bytes())
		}
		return
	}
	// Packed: the run of the model's pairs, which its walk reads back in
	// ascending x.
	checkRun(t, step, a, ascendingPairs(p.freq))
}

// sameSketch fails unless a and b — two sketches fed the same updates, stored
// however each came to be — agree on everything a caller can see: form, Size,
// the estimates, the budgets and the image, which holds every counter or pair.
func sameSketch(t *testing.T, step string, a, b *CountSketch) {
	t.Helper()
	if a.dense != b.dense || a.Size() != b.Size() {
		t.Fatalf("%s: dense=%v Size %d, twin dense=%v Size %d", step, a.dense, a.Size(), b.dense, b.Size())
	}
	if x, y := a.Estimate(), b.Estimate(); x != y {
		t.Fatalf("%s: Estimate %v, twin %v", step, x, y)
	}
	for _, x := range []uint64{0, 1, 2, 3, 7, 1<<24 - 1, 1 << 24, 1<<32 - 1, 1 << 32, math.MaxUint64} {
		if u, v := a.EstimateItem(x), b.EstimateItem(x); u != v {
			t.Fatalf("%s: EstimateItem(%d) = %v, twin %v", step, x, u, v)
		}
	}
	for _, thresh := range []float64{1, 64, 1 << 20, 1 << 40, 1 << 62, 1e30} {
		if u, v := a.ThresholdBudget(thresh), b.ThresholdBudget(thresh); u != v {
			t.Fatalf("%s: ThresholdBudget(%g) = %d, twin %d", step, thresh, u, v)
		}
	}
	img, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if bimg, _ := b.MarshalBinary(); !bytes.Equal(img, bimg) {
		t.Fatalf("%s: image differs from the twin's", step)
	}
}

// checkBooks fails unless m's running counts are a walk of the sketches it has
// out — and of the one sketch it keeps for the next New, which must be empty —
// and its arena's are a walk of its blocks and free runs (checkHeld). Each
// packed run out must be the run of what its walk reads, Σf²'s two words
// theirs and Bytes its block (checkRun), and each packed array the frame of
// the counters it reads (checkFrame). It returns the arena's free runs,
// ordered by address.
func checkBooks(t *testing.T, step string, m *F2Maker, out []*CountSketch) []span {
	t.Helper()
	held, headers := 0, 0
	if c := m.spare; c != nil && *c != (CountSketch{maker: m}) {
		t.Fatalf("%s: the maker keeps a sketch holding %+v", step, *c)
	}
	var blocks []span
	for _, c := range out {
		if (c.p == nil) != (c.Bytes() == 0) {
			t.Fatalf("%s: a sketch holding %d bytes has block %p (dense=%v, %d pairs)", step, c.Bytes(), c.p, c.dense, c.n)
		}
		if c.p != nil {
			blocks = append(blocks, span{uintptr(c.p), c.Bytes()})
		}
		if packed(c) {
			checkRun(t, step, c, pairsOf(c))
		}
		if packedArray(c) {
			checkFrame(t, step, c, counters(c))
		}
		held += c.Bytes()
		headers += countSketchBytes
	}
	if m.HeldBytes() != held || m.HeaderBytes() != headers {
		t.Fatalf("%s: HeldBytes %d, HeaderBytes %d; the %d sketches out hold %d and %d", step, m.HeldBytes(), m.HeaderBytes(), len(out), held, headers)
	}
	if _, heap := m.PooledBytes(); heap != m.slab.Spare()*countSketchBytes+m.arena.lists {
		t.Fatalf("%s: PooledBytes counts %d bytes on the heap, the slab has %d spare slots and the arena's lists take %d bytes", step, heap, m.slab.Spare(), m.arena.lists)
	}
	if pooled, _ := m.PooledBytes(); pooled+held != m.ArenaBytes() {
		t.Fatalf("%s: PooledBytes %d and HeldBytes %d, ArenaBytes %d", step, pooled, held, m.ArenaBytes())
	}
	return checkHeld(t, step, m.arena, blocks)
}

// shape is what a step can change about a sketch's storage.
type shape struct {
	dense    bool
	cw, rung uint8
	slots    int
	packed   bool
}

func shapeOf(c *CountSketch) shape {
	return shape{c.dense, c.cw, c.rung, c.slots(), packed(c)}
}

// formOf names what a sketch is stored as, for the merge floors.
func formOf(c *CountSketch) string {
	switch s := shapeOf(c); {
	case s.dense && s.cw == 0:
		return "packed"
	case s.dense:
		return "dense"
	case s.packed:
		return "run"
	default:
		return fmt.Sprint(4 << s.rung)
	}
}

// moves names the storage moves between two shapes of one sketch.
func moves(before, after shape) (names []string) {
	switch {
	case !before.dense && after.dense:
		names = append(names, "promote")
		if before.packed {
			names = append(names, "promote a run")
		}
	case before.dense && !after.dense:
		names = append(names, "reset an array")
	case after.dense && before.cw != 0 && after.cw == 0:
		names = append(names, "pack an array")
	case after.dense && before.cw == 0 && after.cw != 0:
		names = append(names, "unpack an array")
	case after.dense:
	case !before.packed && after.packed:
		names = append(names, "pack")
	case before.packed && after.slots > 0:
		names = append(names, "unpack")
	case before.slots > 0 && after.slots == 0, before.packed && !after.packed:
		names = append(names, "reset a table")
	case before.slots == 0 && after.slots > 0:
		names = append(names, "first table")
	case after.slots > before.slots:
		names = append(names, "grow")
	}
	for rung := before.rung + 1; !after.dense && (before.slots > 0 || before.packed) && rung <= after.rung; rung++ {
		names = append(names, fmt.Sprintf("table to %d-byte slots", 4<<rung))
	}
	for _, cw := range []uint8{2, 8} {
		if after.dense && before.cw < cw && after.cw >= cw {
			names = append(names, fmt.Sprintf("array to int%d", 8*cw))
		}
	}
	return names
}

// runForms runs seeded random operation sequences over three registers a run,
// seeds from to to on each geometry, and fails unless each named floor — a
// storage move, a merge of two forms, a new block over bytes an earlier one
// held and handed back — was seen at least 50 times. Each register draws its
// identifiers from one band — under 2^24, across it, across 2^32 — and its
// weights from units, or up to and across 2^7, 2^15, 2^31 and 2^40, signed,
// over a domain on either side of the promotion point, so tables and arrays
// climb every rung and come back under it. Merges meet every pair of forms, a register with itself too; Compact
// packs tables that later writes unpack; and the makers start with their
// arenas' free runs primed, so a table handed back unzeroed, or too early,
// shows as a pair nobody added. Compact packs arrays too, which merges unpack,
// and a merge into a packed array is packed again one time in two, as a fold
// into a closed chain head is.
func runForms(t *testing.T, geometries []struct{ width, depth int }, from, to uint64, floors ...string) {
	seen := map[string]int{}
	for _, g := range geometries {
		for seed := from; seed <= to; seed++ {
			r := newFormsRun(t, g.width, g.depth, seed, hash.New(seed), seen)
			for step := 0; step < 600; step++ {
				r.step(t, step)
			}
			r.finish(t)
		}
	}
	for _, name := range floors {
		if seen[name] < 50 {
			t.Errorf("%s: seen %d times, want at least 50", name, seen[name])
		}
	}
	t.Logf("seen: %v", seen)
}

// draws is where a run of the generator takes its choices from: a seeded
// generator, or a fuzzer's bytes.
type draws interface{ Uint64n(n uint64) uint64 }

// formsRun is one run of the generator: a maker primed as runForms says, the
// twins' maker, three registers, and the draws that choose every step.
type formsRun struct {
	m, twin *F2Maker
	rng     draws
	seed    uint64 // the makers' and the registers' bands'
	domain  uint64 // identifiers come from a band this wide
	regs    []*register
	seen    map[string]int // the floors met, by name
	held    []span         // the bytes blocks held at the checks of earlier steps, ordered, disjoint
	checked []span         // the blocks held at this step's checks
}

func newFormsRun(t *testing.T, width, depth int, seed uint64, rng draws, seen map[string]int) *formsRun {
	m := NewF2Maker(width, depth, hash.New(5000+seed))
	r := &formsRun{m: m, twin: twinOf(m), rng: rng, seed: seed, seen: seen}
	primeTables(t, r.m)
	primeTables(t, r.twin)
	r.domain = uint64(m.itemsMax)/2 + 1 + rng.Uint64n(uint64(m.itemsMax)+4)
	r.regs = []*register{r.fresh(0), r.fresh(1), r.fresh(2)}
	return r
}

// fresh returns register i's empty replacement; the run's heaviest weights are
// its seed's tier.
func (r *formsRun) fresh(i uint64) *register {
	p := newRegister(r.m, r.twin)
	wTop := r.seed % 5
	p.huge, p.xTier, p.wTier = wTop >= 3, (r.seed+i)%3, min(wTop, (r.seed/3+i)%5)
	return p
}

func (r *formsRun) weight(tier uint64) int64 {
	var w int64
	switch k := r.rng.Uint64n(16); {
	case k == 0 && tier >= 4:
		w = 1 << 40
	case k <= 1 && tier >= 3:
		w = 1<<31 - 2 + int64(r.rng.Uint64n(5))
	case k <= 3 && tier >= 2:
		w = 1<<15 - 2 + int64(r.rng.Uint64n(5))
	case k <= 5 && tier >= 1:
		w = 1 + int64(r.rng.Uint64n(1<<13))
	case k <= 7 && tier >= 1:
		w = 1<<7 - 2 + int64(r.rng.Uint64n(5))
	default:
		w = 1 + int64(r.rng.Uint64n(3))
	}
	if r.rng.Uint64n(2) == 0 {
		w = -w
	}
	return w
}

func (r *formsRun) ident(tier uint64) uint64 {
	return r.rng.Uint64n(r.domain) + []uint64{0, 1<<24 - r.domain/2, 1<<32 - r.domain/2}[tier]
}

// out is every sketch of the maker out: more, and the registers'.
func (r *formsRun) out(more ...*CountSketch) []*CountSketch {
	return append(more, r.regs[0].a, r.regs[1].a, r.regs[2].a)
}

// books checks the maker's books with more and the registers out
// (checkBooks) and notes the blocks they hold.
func (r *formsRun) books(t *testing.T, what string, more ...*CountSketch) {
	t.Helper()
	out := r.out(more...)
	checkBooks(t, what, r.m, out)
	for _, c := range out {
		if c.p != nil {
			r.checked = append(r.checked, span{uintptr(c.p), c.Bytes()})
		}
	}
}

// heldBefore reports whether any of size bytes at p was held by a block at
// an earlier step's check.
func (r *formsRun) heldBefore(p uintptr, size int) bool {
	i := sort.Search(len(r.held), func(i int) bool { return r.held[i].at+uintptr(r.held[i].size) > p })
	return i < len(r.held) && r.held[i].at < p+uintptr(size)
}

// noteHeld adds the blocks of this step's checks to held.
func (r *formsRun) noteHeld() {
	all := append(r.held, r.checked...)
	slices.SortFunc(all, func(x, y span) int { return cmp.Compare(x.at, y.at) })
	r.held, r.checked = all[:0], r.checked[:0]
	for _, b := range all {
		if n := len(r.held); n > 0 && b.at <= r.held[n-1].at+uintptr(r.held[n-1].size) {
			r.held[n-1].size = max(r.held[n-1].size, int(b.at-r.held[n-1].at)+b.size)
		} else {
			r.held = append(r.held, b)
		}
	}
}

// step draws one operation, applies it, and holds the register it leaves
// to its twin and its model, and the maker's books to a walk.
func (r *formsRun) step(t *testing.T, step int) {
	m, twin, rng, seen, regs := r.m, r.twin, r.rng, r.seen, r.regs
	i := rng.Uint64n(3)
	p, q := regs[i], regs[(i+rng.Uint64n(3))%3] // q is p one time in three
	at := func(what string, args ...any) string {
		return fmt.Sprintf("%dx%d seed %d step %d %s", m.width, m.depth, r.seed, step, fmt.Sprintf(what, args...))
	}
	// acted is the sketch the step changed in place, if it did.
	acted, before, was, wasBytes := p.a, shapeOf(p.a), p.a.p, p.a.Bytes()
	var what string
	switch op := rng.Uint64n(40); {
	case op < 8:
		x, w := r.ident(p.xTier), r.weight(p.wTier)
		what = at("Add(%d,%d)", x, w)
		p.add(x, w)
	case op < 14:
		x, w := r.ident(p.xTier), r.weight(p.wTier)
		what = at("AddSlots(%d,%d)", x, w)
		p.addSlots(x, w)
	case op < 16:
		// Cancel a pair outright: it leaves the table by backward
		// shift, and a run is unpacked first.
		x := r.ident(p.xTier)
		what = at("Add(%d,%d) to zero", x, -p.freq[x])
		p.add(x, -p.freq[x])
	case op < 17:
		// A spike and straight back: the values return to where they
		// were, the width does not. A run unpacks to the same pairs and
		// Σf²; only the form and Bytes move.
		x, w := r.ident(p.xTier), int64(1)<<(7+8*min(rng.Uint64n(4), p.wTier))
		if p.wTier == 0 {
			w = 1 << 5
		}
		what = at("Add(%d,±%d)", x, w)
		hi, lo := p.a.f2hi(), p.a.f2lo
		p.add(x, w)
		p.add(x, -w)
		if before.packed && !p.a.dense {
			if p.a.f2hi() != hi || p.a.f2lo != lo {
				t.Fatalf("%s: Σf² went from %#x:%#x to %#x:%#x through an unpack", what, hi, lo, p.a.f2hi(), p.a.f2lo)
			}
			seen["Σf² through an unpack"]++
		}
	case op < 26:
		// Either side may be a closed bucket's.
		if rng.Uint64n(4) == 0 {
			q.a.Compact()
		}
		if rng.Uint64n(4) == 0 {
			p.a.Compact()
			before = shapeOf(p.a)
		}
		forms := formOf(p.a) + " <- " + formOf(q.a)
		seen["merge "+forms]++
		if q == p && before.packed {
			seen["merge a run into itself"]++
		}
		writes := q.a.dense || q.a.n > 0
		what = at("Merge(%s, itself=%v)", forms, p == q)
		p.merge(t, q)
		if before.packed && writes && packed(p.a) {
			t.Fatalf("%s: a merge wrote into a run and left it packed", what)
		}
		if before.dense && before.cw == 0 && writes {
			if packedArray(p.a) {
				t.Fatalf("%s: a merge wrote into a packed array and left it packed", what)
			}
			seen["merge into a packed array"]++
			if rng.Uint64n(2) == 0 {
				what += " and Compact"
				if p.a.Compact(); packedArray(p.a) {
					seen["fold into a packed head"]++
				}
			}
		}
	case op < 28:
		what, acted = at("Compose"), nil
		c := &register{
			a:     Compose(m, []Sketch{regs[0].a, regs[1].a, regs[2].a}).(*CountSketch),
			r:     Compose(twin, []Sketch{regs[0].r, regs[1].r, regs[2].r}).(*CountSketch),
			model: newModel(m), huge: p.huge, xTier: p.xTier, wTier: p.wTier,
		}
		for _, o := range regs {
			c.model.merge(m, &o.model)
		}
		m.Recycle(p.a)
		twin.Recycle(p.r)
		regs[i], p = c, c
	case op < 33:
		what = at("Compact")
		hi, lo, plain := p.a.f2hi(), p.a.f2lo, p.a.dense && p.a.cw != 0
		p.a.Compact()
		if p.a.f2hi() != hi || p.a.f2lo != lo {
			t.Fatalf("%s: Σf² went from %#x:%#x to %#x:%#x", what, hi, lo, p.a.f2hi(), p.a.f2lo)
		}
		// An array is packed exactly when its frame is smaller than the
		// array its counters need.
		if plain {
			size := m.denseBytes(widthFor(p.ctr))
			if framed := len(frameImage(p.a.rowF2(), p.ctr)); packedArray(p.a) != (framed < size) {
				t.Fatalf("%s: a %d-byte array whose frame takes %d left packed=%v", what, size, framed, packedArray(p.a))
			}
		}
	case op < 34:
		what = at("Reset")
		p.a.Reset()
		p.r.Reset()
		p.model = newModel(m)
	case op < 35:
		what = at("Recycle+New")
		m.Recycle(p.a)
		twin.Recycle(p.r)
		regs[i] = r.fresh(i)
		if c := regs[i].a; *c != (CountSketch{maker: m}) {
			t.Fatalf("%s: a recycled sketch came back holding %+v", what, *c)
		}
		p = regs[i]
	case op < 38:
		// p's image into q's sketches, or into new ones that replace
		// them: either way q becomes a copy of p, stored as narrow as
		// the values allow.
		used := rng.Uint64n(2) == 0
		what, acted = at("image into %s (used=%v)", formOf(q.a), used), nil
		imgA, _ := p.a.MarshalBinary()
		imgR, _ := p.r.MarshalBinary()
		var frame []byte // a packed array's nibbles and list
		if packedArray(p.a) {
			frame = slices.Clone(block(p.a)[8*m.depth:])
		}
		if used {
			seen["unmarshal over a used sketch"]++
		} else {
			m.Recycle(q.a)
			twin.Recycle(q.r)
			q.a, q.r = m.New().(*CountSketch), twin.New().(*CountSketch)
		}
		if err := q.a.UnmarshalBinary(imgA); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := q.r.UnmarshalBinary(imgR); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		q.model = model{freq: maps.Clone(p.freq), ctr: slices.Clone(p.ctr), rung: slot4}
		for x, f := range p.freq {
			q.rung = max(q.rung, rungFor(x, f))
		}
		if q.a.dense && q.a.cw != widthFor(q.ctr) {
			t.Fatalf("%s: decoded at %d bytes a counter, the counters need %d", what, q.a.cw, widthFor(q.ctr))
		}
		if frame != nil {
			// The image of a packed array decodes to a plain one, which packs
			// to the same nibbles and list.
			if q.a.Compact(); !packedArray(q.a) || !bytes.Equal(block(q.a)[8*m.depth:], frame) {
				t.Fatalf("%s: a packed array's image packs again to other bytes", what)
			}
			seen["image of a packed array"]++
		}
		p = q
	case op < 39:
		// An image cut short fails part-way in; what was decoded before
		// the cut stays with the sketch, and on the books, until q is
		// recycled.
		img, _ := p.a.MarshalBinary()
		used := rng.Uint64n(2) == 0
		what, acted = at("truncated image (used=%v)", used), nil
		if len(img) <= 8 {
			break
		}
		c, extra := q.a, []*CountSketch(nil)
		if !used {
			c = m.New().(*CountSketch)
			extra = append(extra, c)
		}
		if err := c.UnmarshalBinary(img[:len(img)-1-int(rng.Uint64n(4))]); err == nil {
			t.Fatalf("%s: decoded", what)
		}
		seen["failed unmarshal"]++
		r.books(t, what, extra...)
		m.Recycle(c)
		if used {
			twin.Recycle(q.r)
			j := slices.Index(regs, q)
			regs[j] = r.fresh(uint64(j))
			p = regs[j]
		}
	default:
		// A burst of copies of p in the maker's slab, freed at once:
		// each slot goes back holding nothing but its maker, and
		// waits, counted in PooledBytes, for the next Alloc, and
		// each block to the free runs of the arena.
		what, acted = at("recycle burst"), nil
		img, _ := p.a.MarshalBinary()
		burst := make([]uint32, 300)
		held := make([]*CountSketch, len(burst))
		for k := range burst {
			burst[k] = m.Alloc()
			held[k] = m.At(burst[k]).(*CountSketch)
			if err := held[k].UnmarshalBinary(img); err != nil {
				t.Fatal(err)
			}
		}
		r.books(t, what, held...)
		for k, h := range burst {
			m.Free(h)
			if !reflect.DeepEqual(*held[k], CountSketch{maker: m}) {
				t.Fatalf("%s: a freed slot holds %+v", what, *held[k])
			}
		}
		seen["recycle burst"]++
		if m.slab.Spare() >= len(burst) {
			seen["spare slab slots"]++
		}
	}
	if acted != nil {
		after := shapeOf(acted)
		for _, name := range moves(before, after) {
			seen[name]++
		}
		if before.dense && after.dense && after.cw != 0 && after.cw < before.cw {
			t.Fatalf("%s: went from %d bytes a counter to %d without a Reset", what, before.cw, after.cw)
		}
	}
	p.check(t, what)
	// A new block the step gave its register that overlaps bytes a block
	// held at an earlier step holds what that block handed back.
	r.books(t, what)
	if acted != nil && acted.p != nil && (acted.p != was || acted.Bytes() != wasBytes) && r.heldBefore(uintptr(acted.p), acted.Bytes()) {
		name := "a table"
		if packedArray(acted) {
			name = "a packed array"
		} else if acted.dense {
			name = fmt.Sprintf("an int%d array", 8*acted.cw)
		}
		seen["free runs taken again for "+name]++
	}
	r.noteHeld()
	if p.a.dense && p.a.cw > widthFor(p.ctr) || !p.a.dense && p.a.rung > needsRung(p.a) {
		seen["wider than its values need"]++
	}
}

// finish recycles the registers and fails unless the books then read nothing
// out.
func (r *formsRun) finish(t *testing.T) {
	for _, p := range r.regs {
		r.m.Recycle(p.a)
	}
	if checkBooks(t, "all recycled", r.m, nil); r.m.HeldBytes() != 0 || r.m.HeaderBytes() != 0 {
		t.Fatalf("with nothing out the books read %d held, %d headers", r.m.HeldBytes(), r.m.HeaderBytes())
	}
}

// byteDraws draws from a fuzzer's bytes: each draw takes as many as its range
// needs, big-endian, and a draw past the end reads zeros.
type byteDraws struct{ data []byte }

func (d *byteDraws) Uint64n(n uint64) uint64 {
	var v uint64
	for k := (bits.Len64(n-1) + 7) / 8; k > 0 && len(d.data) > 0; k-- {
		v, d.data = v<<8|uint64(d.data[0]), d.data[1:]
	}
	return v % n
}

// FuzzCountSketchForms drives the generator from a fuzzer's bytes: the first
// picks the geometry, the second seeds the makers and sets the registers'
// bands, and the rest choose the steps — adds, slot adds, merges, packs,
// compositions, Reset, Recycle, images whole and cut short, recycle bursts —
// until they run out. After every step the register acted on is held to its
// twin and its model, image and estimates, and the maker's books to a walk.
func FuzzCountSketchForms(f *testing.F) {
	geometries := []struct{ width, depth int }{{16, 3}, {32, 3}, {64, 4}, {8, 1}}
	for seed := range uint64(8) {
		rng := hash.New(seed)
		data := []byte{byte(seed), byte(seed * 37)}
		for range 400 {
			data = append(data, byte(rng.Uint64n(256)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := geometries[int(data[0])%len(geometries)]
		d := &byteDraws{data[2:]}
		r := newFormsRun(t, g.width, g.depth, uint64(data[1]), d, map[string]int{})
		for step := 0; len(d.data) > 0 && step < 300; step++ {
			r.step(t, step)
		}
		r.finish(t)
	})
}

// TestCountSketchFormsAgree runs the generator on five geometries and holds it
// to every storage move and every pair of forms a merge can meet.
func TestCountSketchFormsAgree(t *testing.T) {
	floors := []string{
		"first table", "grow", "table to 8-byte slots", "table to 16-byte slots", "pack", "unpack",
		"promote", "promote a run", "array to int16", "array to int64", "reset a table", "reset an array",
		"wider than its values need", "merge a run into itself", "Σf² through an unpack",
		"pack an array", "unpack an array", "merge into a packed array", "fold into a packed head", "image of a packed array",
		"unmarshal over a used sketch", "failed unmarshal", "recycle burst",
		"spare slab slots", "free runs taken again for a table", "free runs taken again for an int8 array",
		"free runs taken again for an int16 array", "free runs taken again for an int64 array",
	}
	forms := []string{"4", "8", "16", "run", "dense", "packed"}
	for _, a := range forms {
		for _, b := range forms {
			floors = append(floors, "merge "+a+" <- "+b)
		}
	}
	runForms(t, []struct{ width, depth int }{{16, 3}, {32, 3}, {64, 4}, {356, 4}, {8, 1}}, 1, 24, floors...)
}

// The four below run the generator on seeds of their own, each where the
// storage it names moves most: arrays on narrow geometries, which promote
// soonest; slot widths on middling ones; runs on the widest, whose tables are
// largest; and the maker's books on the one-row geometry that fills every list.

func TestCountSketchWidthsAgree(t *testing.T) {
	runForms(t, []struct{ width, depth int }{{8, 1}, {16, 3}}, 13, 15,
		"promote", "array to int16", "array to int64", "reset an array")
}

func TestCountSketchTableWidthsAgree(t *testing.T) {
	runForms(t, []struct{ width, depth int }{{64, 4}, {32, 3}}, 13, 17,
		"first table", "grow", "table to 8-byte slots", "table to 16-byte slots", "reset a table")
}

func TestCountSketchCutTableAgrees(t *testing.T) {
	runForms(t, []struct{ width, depth int }{{356, 4}, {64, 4}}, 18, 20,
		"pack", "unpack", "merge a run into itself", "merge run <- run")
}

func TestMakerBooksAreTheWalk(t *testing.T) {
	runForms(t, []struct{ width, depth int }{{8, 1}}, 13, 26, "unmarshal over a used sketch", "failed unmarshal",
		"recycle burst", "spare slab slots", "free runs taken again for a table", "free runs taken again for an int8 array",
		"free runs taken again for an int16 array", "free runs taken again for an int64 array")
}
