package sketch

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/big"
	"slices"
	"testing"
	"unsafe"

	"github.com/streamagg/correlated/internal/hash"
)

// A CountSketch is stored in one of many states — an items table hashed or cut
// to fit, at four, eight or sixteen bytes a slot, or a dense array at one, two
// or eight bytes a counter — and every one of them must answer as the state
// every image and Size describe: a hashed table of sixteen-byte slots that is
// never cut, promoting to an all-int64 array. TestCountSketchFormsAgree drives
// sketches through seeded random operation sequences beside a twin lifted to
// that state after every step and beside a model of what both were fed, and
// after every step also holds the maker's books to a walk of what it has out.

// twinOf returns a maker with m's geometry, row hashes and promotion point, and
// free lists of its own: the maker of the twins.
func twinOf(m *F2Maker) *F2Maker {
	return &F2Maker{
		width: m.width, depth: m.depth, rowH: m.rowH, itemsMax: m.itemsMax,
		medScratch: make([]float64, m.depth),
		tables:     make([][][]uint64, len(m.tables)),
	}
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
// round by that order, which a cut table and a hashed one do not share: there
// both sides are re-summed, as a restart does.
func (p *register) merge(t *testing.T, q *register) {
	t.Helper()
	items := !q.a.dense
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
	for !r.dense && r.rung < slot16 {
		r.widenTable()
	}
	sameSketch(t, step, a, r)
	img, _ := a.MarshalBinary()
	if !bytes.Equal(img, p.image(m, a.dense)) {
		t.Fatalf("%s: image differs from the model's (dense=%v, %d pairs, model %d)", step, a.dense, a.n, len(p.freq))
	}
	if a.dense {
		if cw := widthFor(p.ctr); a.cw < cw || a.Bytes() != int(a.cw)*m.width*m.depth+8*m.depth {
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
		if !slices.Equal(rows, a.rowF2) {
			t.Fatalf("%s: row sums %v, the model's counters square to %v", step, a.rowF2, rows)
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
	got := new(big.Int).Lsh(new(big.Int).SetUint64(a.f2hi), 64)
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
	if !a.cut() || a.n == 0 {
		if s := a.slots(); (s != 0 && (s < itemsMinCap || s&(s-1) != 0)) || a.Bytes() != s*4<<a.rung {
			t.Fatalf("%s: a hashed table of %d slots of %d bytes holds %d bytes", step, s, 4<<a.rung, a.Bytes())
		}
		return
	}
	// Cut: exactly the pairs in whole words — the image already showed them in
	// ascending x — and an odd count of four-byte slots leaves the last word's
	// upper half, which must read empty.
	if want := (4<<a.rung*int(a.n) + 7) &^ 7; a.Bytes() != want {
		t.Fatalf("%s: Bytes = %d cut to %d pairs of %d bytes, want %d", step, a.Bytes(), a.n, 4<<a.rung, want)
	}
	if a.slots() != int(a.n) {
		if x, f := a.pairAt(int(a.n)); x != 0 || f != 0 {
			t.Fatalf("%s: %d pairs cut into %d slots, the spare holding (%d,%d)", step, a.n, a.slots(), x, f)
		}
	}
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
// out, and its free lists hold nothing but zeroed storage of their class,
// within their bounds. It returns the lists at their bound.
func checkBooks(t *testing.T, step string, m *F2Maker, out []*CountSketch) (full []string) {
	held, headers := 0, 0
	for _, c := range out {
		held += c.Bytes()
		headers += countSketchBytes
		wide := c.dense && c.cw > 1
		if wide != (c.denseState != nil && c.wide != nil) {
			t.Fatalf("%s: dense=%v at %d bytes a counter with wide headers %v", step, c.dense, c.cw, !wide)
		}
		if c.dense {
			headers += denseStateBytes
		}
		if wide {
			headers += wideCountersBytes
		}
	}
	if m.HeldBytes() != held || m.HeaderBytes() != headers {
		t.Fatalf("%s: HeldBytes %d, HeaderBytes %d; the %d sketches out hold %d and %d", step, m.HeldBytes(), m.HeaderBytes(), len(out), held, headers)
	}
	pooled := 0
	for k, list := range m.tables {
		pooled += 8 * pooledZeroed(t, step, list, maxTablePool, 4<<k)
		if len(list) == maxTablePool {
			full = append(full, "tables")
		}
	}
	array := m.width * m.depth
	pooled += pooledZeroed(t, step, m.pool8, maxNarrowPool, array) +
		2*pooledZeroed(t, step, m.pool16, maxWidePool, array) +
		8*pooledZeroed(t, step, m.pool64, maxWidePool, array)
	if got, bound := m.PooledBytes(); got != pooled || got > bound {
		t.Fatalf("%s: PooledBytes %d of at most %d, the lists hold %d", step, got, bound, pooled)
	}
	for name, n := range map[string]int{"sketches": len(m.pool) - maxPool, "int8": len(m.pool8) - maxNarrowPool,
		"int16": len(m.pool16) - maxWidePool, "int64": len(m.pool64) - maxWidePool} {
		if n == 0 {
			full = append(full, name)
		}
	}
	return full
}

// pooledZeroed fails unless list holds at most limit entries of n zeroed
// elements each, and returns the elements it holds.
func pooledZeroed[T any](t *testing.T, step string, list [][]T, limit, n int) int {
	if len(list) > limit {
		t.Fatalf("%s: a free list holds %d, its bound is %d", step, len(list), limit)
	}
	for _, s := range list {
		b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
		if len(s) != n || !bytes.Equal(b, zeros[:len(b)]) {
			t.Fatalf("%s: a free list of %d-element entries holds a dirty one, or one of %d", step, n, len(s))
		}
	}
	return len(list) * n
}

var zeros = make([]byte, 1<<14) // more than the largest table or array a test geometry has

// shape is what a step can change about a sketch's storage.
type shape struct {
	dense    bool
	cw, rung uint8
	slots    int
	cut      bool
}

func shapeOf(c *CountSketch) shape {
	return shape{c.dense, c.cw, c.rung, c.slots(), !c.dense && c.n > 0 && c.cut()}
}

// formOf names what a sketch is stored as, for the merge floors.
func formOf(c *CountSketch) string {
	switch s := shapeOf(c); {
	case s.dense:
		return "dense"
	case s.cut:
		return "cut"
	default:
		return fmt.Sprint(4 << s.rung)
	}
}

// moves names the storage moves between two shapes of one sketch.
func moves(before, after shape) (names []string) {
	switch {
	case !before.dense && after.dense:
		names = append(names, "promote")
		if before.cut {
			names = append(names, "promote a cut table")
		}
	case before.dense && !after.dense:
		names = append(names, "reset an array")
	case after.dense:
	case before.slots > 0 && after.slots == 0:
		names = append(names, "reset a table")
	case before.slots == 0 && after.slots > 0:
		names = append(names, "first table")
	case !before.cut && after.cut:
		names = append(names, "cut")
	case before.cut && !after.cut:
		names = append(names, "hash a cut table again")
	case after.slots > before.slots:
		names = append(names, "grow")
	}
	for rung := before.rung + 1; !after.dense && before.slots > 0 && rung <= after.rung; rung++ {
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
// storage move, a merge of two forms, a list found full — was seen at least 50
// times. Each register draws its identifiers from one band — under
// 2^24, across it, across 2^32 — and its weights from units, or up to and
// across 2^7, 2^15, 2^31 and 2^40, signed, over a domain on either side of the
// promotion point, so tables and arrays climb every rung and come back under
// it. Merges meet every pair of forms, a register with itself too; Compact
// cuts tables that later writes hash again; and the makers start with their
// free lists primed, so a table handed back unzeroed, or too early, shows as a
// pair nobody added.
func runForms(t *testing.T, geometries []struct{ width, depth int }, from, to uint64, floors ...string) {
	seen := map[string]int{}
	for _, g := range geometries {
		for seed := from; seed <= to; seed++ {
			m := NewF2Maker(g.width, g.depth, hash.New(5000+seed))
			twin := twinOf(m)
			primeTables(t, m)
			primeTables(t, twin)
			rng := hash.New(seed)
			wTop := seed % 5 // the heaviest weights of the run
			weight := func(tier uint64) int64 {
				var w int64
				switch k := rng.Uint64n(16); {
				case k == 0 && tier >= 4:
					w = 1 << 40
				case k <= 1 && tier >= 3:
					w = 1<<31 - 2 + int64(rng.Uint64n(5))
				case k <= 3 && tier >= 2:
					w = 1<<15 - 2 + int64(rng.Uint64n(5))
				case k <= 5 && tier >= 1:
					w = 1 + int64(rng.Uint64n(1<<13))
				case k <= 7 && tier >= 1:
					w = 1<<7 - 2 + int64(rng.Uint64n(5))
				default:
					w = 1 + int64(rng.Uint64n(3))
				}
				if rng.Uint64n(2) == 0 {
					w = -w
				}
				return w
			}
			domain := uint64(m.itemsMax)/2 + 1 + rng.Uint64n(uint64(m.itemsMax)+4)
			ident := func(tier uint64) uint64 {
				return rng.Uint64n(domain) + []uint64{0, 1<<24 - domain/2, 1<<32 - domain/2}[tier]
			}
			fresh := func(i uint64) *register {
				p := newRegister(m, twin)
				p.huge, p.xTier, p.wTier = wTop >= 3, (seed+i)%3, min(wTop, (seed/3+i)%5)
				return p
			}
			regs := []*register{fresh(0), fresh(1), fresh(2)}
			out := func(more ...*CountSketch) []*CountSketch {
				return append(more, regs[0].a, regs[1].a, regs[2].a)
			}
			for step := 0; step < 600; step++ {
				i := rng.Uint64n(3)
				p, q := regs[i], regs[(i+rng.Uint64n(3))%3] // q is p one time in three
				at := func(what string, args ...any) string {
					return fmt.Sprintf("%dx%d seed %d step %d %s", g.width, g.depth, seed, step, fmt.Sprintf(what, args...))
				}
				// acted is the sketch the step changed in place, if it did.
				acted, before := p.a, shapeOf(p.a)
				var what string
				switch op := rng.Uint64n(40); {
				case op < 8:
					x, w := ident(p.xTier), weight(p.wTier)
					what = at("Add(%d,%d)", x, w)
					p.add(x, w)
				case op < 14:
					x, w := ident(p.xTier), weight(p.wTier)
					what = at("AddSlots(%d,%d)", x, w)
					p.addSlots(x, w)
				case op < 16:
					// Cancel a pair outright: it leaves the table by backward
					// shift, and a cut table is hashed again first.
					x := ident(p.xTier)
					what = at("Add(%d,%d) to zero", x, -p.freq[x])
					p.add(x, -p.freq[x])
				case op < 17:
					// A spike and straight back: the values return to where they
					// were, the width does not.
					x, w := ident(p.xTier), int64(1)<<(7+8*min(rng.Uint64n(4), p.wTier))
					if p.wTier == 0 {
						w = 1 << 5
					}
					what = at("Add(%d,±%d)", x, w)
					p.add(x, w)
					p.add(x, -w)
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
					if q == p && before.cut {
						seen["merge a cut table into itself"]++
					}
					what = at("Merge(%s, itself=%v)", forms, p == q)
					p.merge(t, q)
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
					p.a.Compact()
				case op < 34:
					what = at("Reset")
					p.a.Reset()
					p.r.Reset()
					p.model = newModel(m)
				case op < 35:
					what = at("Recycle+New")
					m.Recycle(p.a)
					twin.Recycle(p.r)
					regs[i] = fresh(i)
					if c := regs[i].a; c.dense || c.cw != 0 || c.rung != slot4 || c.tab != nil {
						t.Fatalf("%s: a recycled sketch came back dense=%v at %d bytes a counter, %d-byte slots, %d words",
							what, c.dense, c.cw, 4<<c.rung, len(c.tab))
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
					checkBooks(t, what, m, out(extra...))
					m.Recycle(c)
					if used {
						twin.Recycle(q.r)
						j := slices.Index(regs, q)
						regs[j] = fresh(uint64(j))
						p = regs[j]
					}
				default:
					// A burst of copies of p, more than the list of sketches or the
					// list their storage goes to takes back, recycled at once.
					what, acted = at("recycle burst"), nil
					img, _ := p.a.MarshalBinary()
					burst := make([]*CountSketch, maxPool+1)
					for k := range burst {
						burst[k] = m.New().(*CountSketch)
						if err := burst[k].UnmarshalBinary(img); err != nil {
							t.Fatal(err)
						}
					}
					checkBooks(t, what, m, out(burst...))
					for _, c := range burst {
						m.Recycle(c)
					}
					seen["recycle burst"]++
				}
				if acted != nil {
					after := shapeOf(acted)
					for _, name := range moves(before, after) {
						seen[name]++
					}
					if before.dense && after.dense && after.cw < before.cw {
						t.Fatalf("%s: went from %d bytes a counter to %d without a Reset", what, before.cw, after.cw)
					}
				}
				p.check(t, what)
				for _, name := range checkBooks(t, what, m, out()) {
					seen["full list of "+name]++
				}
				if p.a.dense && p.a.cw > widthFor(p.ctr) || !p.a.dense && p.a.rung > needsRung(p.a) {
					seen["wider than its values need"]++
				}
				if p.a.slots() == int(p.a.n)+1 && p.a.cut() {
					seen["cut table with a spare half word"]++
				}
			}
			for _, p := range regs {
				m.Recycle(p.a)
			}
			if checkBooks(t, "all recycled", m, nil); m.HeldBytes() != 0 || m.HeaderBytes() != 0 {
				t.Fatalf("with nothing out the books read %d held, %d headers", m.HeldBytes(), m.HeaderBytes())
			}
		}
	}
	for _, name := range floors {
		if seen[name] < 50 {
			t.Errorf("%s: seen %d times, want at least 50", name, seen[name])
		}
	}
	t.Logf("seen: %v", seen)
}

// TestCountSketchFormsAgree runs the generator on five geometries and holds it
// to every storage move and every pair of forms a merge can meet.
func TestCountSketchFormsAgree(t *testing.T) {
	floors := []string{
		"first table", "grow", "table to 8-byte slots", "table to 16-byte slots", "cut", "hash a cut table again",
		"promote", "promote a cut table", "array to int16", "array to int64", "reset a table", "reset an array",
		"wider than its values need", "cut table with a spare half word", "merge a cut table into itself",
		"unmarshal over a used sketch", "failed unmarshal", "recycle burst",
		"full list of sketches", "full list of tables", "full list of int8", "full list of int16", "full list of int64",
	}
	forms := []string{"4", "8", "16", "cut", "dense"}
	for _, a := range forms {
		for _, b := range forms {
			floors = append(floors, "merge "+a+" <- "+b)
		}
	}
	runForms(t, []struct{ width, depth int }{{16, 3}, {32, 3}, {64, 4}, {356, 4}, {8, 1}}, 1, 12, floors...)
}

// The four below run the generator on seeds of their own, each where the
// storage it names moves most: arrays on narrow geometries, which promote
// soonest; slot widths on middling ones; cuts on the widest, whose tables are
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
		"cut", "hash a cut table again", "merge a cut table into itself", "merge cut <- cut")
}

func TestMakerBooksAreTheWalk(t *testing.T) {
	runForms(t, []struct{ width, depth int }{{8, 1}}, 13, 18, "unmarshal over a used sketch", "failed unmarshal",
		"recycle burst", "full list of sketches", "full list of tables", "full list of int8", "full list of int16", "full list of int64")
}
