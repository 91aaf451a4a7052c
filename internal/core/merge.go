package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/sketch"
)

// Mergeability (the distributed-streams use case).
//
// The paper's setting is explicitly distributed: each site runs Algorithm 2
// over its local substream and a coordinator combines the site summaries to
// answer AGG{x : y <= c} over the union. Merging works because every piece
// of per-level state is a linear sketch over a dyadic y-interval: two
// summaries built from the same configuration (and therefore the same
// seeded hash functions) merge by
//
//   - unioning the singleton level's per-y sketches,
//   - unioning the per-level bucket trees interval by interval, adding
//     sketches where both sides stored the same dyadic interval,
//   - taking the minimum of the two watermarks Y_l per level, and
//   - re-running the closing check and the capacity eviction on the merged
//     level, with the same threshold rule sequential ingestion uses.
//
// The merged summary is a valid summary of the union stream: every query
// keeps the structure's guarantees, with one caveat. Mass a site absorbed
// into a coarse bucket stays in that coarse bucket, so a query cutoff that
// splits the bucket cannot see it — this is exactly the "straddling
// bucket" (B2) mass the paper's Lemma 4 already bounds per summary, but
// after merging k site summaries the bound is k times one site's. For
// small k this is absorbed by the analysis's slack; to keep a strict
// (eps, delta) guarantee for large k, build the site summaries with
// Eps/k. While every query is still served by the singleton level (no
// singleton eviction has happened, e.g. streams with at most alpha
// distinct y values), merged queries are bit-identical to single-summary
// ingestion of the union, because the composed query sketch is the same
// linear function of the same selected substream.

// errSelfMerge is returned when a summary is merged into itself.
var errSelfMerge = errors.New("core: cannot merge a summary into itself")

// incoming is the state of the other summary being folded into the
// receiver — either a live *Summary (owned = false: its sketches belong to
// a different, equivalent maker and must be copied) or a decoded wire
// image (owned = true: the nodes were built with the receiver's maker and
// may be adopted or recycled in place).
type incoming struct {
	n          uint64
	virginFrom int
	shared     sketch.Sketch
	s0         *levelZero
	levels     []*level
	owned      bool
}

// Merge folds other — a summary built from the same Config (including
// Seed) over a different substream — into the receiver, producing the
// summary of the concatenated stream. The receiver is modified; other is
// left unchanged and remains usable. Configuration mismatches are reported
// as *compat.Error values wrapping compat.ErrIncompatible, naming the
// first differing field (aggregate, eps, delta, ymax, seed, alpha,
// levels).
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return errors.New("core: cannot merge a nil summary")
	}
	if other == s {
		return errSelfMerge
	}
	switch {
	case s.agg.Name != other.agg.Name:
		return compat.Mismatch("aggregate", s.agg.Name, other.agg.Name)
	case s.cfg.Eps != other.cfg.Eps:
		return compat.Mismatch("eps", s.cfg.Eps, other.cfg.Eps)
	case s.cfg.Delta != other.cfg.Delta:
		return compat.Mismatch("delta", s.cfg.Delta, other.cfg.Delta)
	case s.cfg.YMax != other.cfg.YMax:
		return compat.Mismatch("ymax", s.cfg.YMax, other.cfg.YMax)
	case s.cfg.Seed != other.cfg.Seed:
		return compat.Mismatch("seed", s.cfg.Seed, other.cfg.Seed)
	case s.cfg.StrictTheory != other.cfg.StrictTheory:
		// Alpha may coincide (e.g. both set explicitly) while the
		// per-bucket sketch failure probability — and hence the maker
		// geometry — differs.
		return compat.Mismatch("stricttheory", s.cfg.StrictTheory, other.cfg.StrictTheory)
	case s.alpha != other.alpha:
		return compat.Mismatch("alpha", s.alpha, other.alpha)
	case s.lmax != other.lmax:
		return compat.Mismatch("levels", s.lmax, other.lmax)
	}
	// Probe that the sketch layers agree the makers are equivalent; with
	// the field checks above this cannot fail, but a cheap probe beats a
	// silent half-merged summary if it ever does.
	probe, oprobe := s.maker.New(), other.maker.New()
	err := probe.Merge(oprobe)
	sketch.Recycle(s.maker, probe)
	sketch.Recycle(other.maker, oprobe)
	if err != nil {
		// Should be unreachable given the field checks; keep the error
		// matching the documented errors.Is(_, compat.ErrIncompatible)
		// contract either way.
		return fmt.Errorf("core: sketch makers diverge despite matching config (%v): %w",
			err, compat.ErrIncompatible)
	}
	s.mergeIncoming(incoming{
		n:          other.n,
		virginFrom: other.virginFrom,
		shared:     other.shared,
		s0:         &other.s0,
		levels:     other.levels,
	})
	return nil
}

// MergeImage is a serialized site summary decoded against a receiving
// summary's configuration but not yet folded in. Splitting parse from
// apply lets a caller decode several images (or the two directions of a
// dual summary) up front and only then mutate, keeping multi-part merges
// all-or-nothing.
type MergeImage struct {
	in      incoming
	owner   *Summary
	applied bool
}

// MergeMarshaled folds a summary serialized with MarshalBinary into the
// receiver, without materializing a second Summary: decoded buckets are
// built directly from the receiver's (pooled) maker and adopted into the
// merged structure. The bytes must come from a summary created with the
// same aggregate and Config (including Seed) — the encoding carries only
// alpha and the level count, so the remaining fields are the caller's
// responsibility, exactly as with UnmarshalBinary. The receiver is
// untouched when an error is returned.
func (s *Summary) MergeMarshaled(data []byte) error {
	img, err := s.ParseMergeImage(data)
	if err != nil {
		return err
	}
	return s.ApplyMergeImage(img)
}

// ParseMergeImage decodes data (a MarshalBinary image of a compatible
// summary) into a MergeImage without touching the receiver. Apply it with
// ApplyMergeImage, or hand its sketches back with Discard.
func (s *Summary) ParseMergeImage(data []byte) (*MergeImage, error) {
	img := &MergeImage{in: incoming{owned: true}, owner: s}
	if err := s.parseInto(&img.in, data); err != nil {
		img.Discard() // what was decoded before the bad byte
		return nil, err
	}
	return img, nil
}

// Discard ends the life of an image that will not be applied: its sketches
// came from the owner's maker — whose running byte count has them on the
// books — and go back to it. Applying an image is the other way to end it;
// after either, Discard does nothing.
func (img *MergeImage) Discard() {
	if img == nil || img.applied {
		return
	}
	img.applied = true
	s, in := img.owner, img.in
	sketch.Recycle(s.maker, in.shared)
	if in.s0 != nil {
		for _, b := range in.s0.buckets {
			sketch.Recycle(s.maker, b.sk)
		}
	}
	for _, lv := range in.levels {
		if lv != nil {
			s.recycleTree(lv.root)
		}
	}
}

// parseInto is ParseMergeImage's decode, filling in as it goes so that a
// failure leaves behind exactly what has to be discarded.
func (s *Summary) parseInto(in *incoming, data []byte) error {
	if len(data) < 1 || data[0] != coreMarshalVersion {
		return ErrBadEncoding
	}
	data = data[1:]
	// Config-compatibility block: the image must come from a summary
	// whose configuration matches the receiver's.
	var cfgVals [5]uint64 // eps bits, delta bits, ymax, seed, stricttheory
	for i := range cfgVals {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return ErrBadEncoding
		}
		cfgVals[i] = v
		data = data[n:]
	}
	var strict uint64
	if s.cfg.StrictTheory {
		strict = 1
	}
	switch {
	case cfgVals[0] != math.Float64bits(s.cfg.Eps):
		return compat.Mismatch("eps", s.cfg.Eps, math.Float64frombits(cfgVals[0]))
	case cfgVals[1] != math.Float64bits(s.cfg.Delta):
		return compat.Mismatch("delta", s.cfg.Delta, math.Float64frombits(cfgVals[1]))
	case cfgVals[2] != s.cfg.YMax:
		return compat.Mismatch("ymax", s.cfg.YMax, cfgVals[2])
	case cfgVals[3] != s.cfg.Seed:
		return compat.Mismatch("seed", s.cfg.Seed, cfgVals[3])
	case cfgVals[4] != strict:
		return compat.Mismatch("stricttheory", strict == 1, cfgVals[4] == 1)
	}
	var vals [4]uint64 // n, alpha, lmax, virginFrom
	for i := range vals {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return ErrBadEncoding
		}
		vals[i] = v
		data = data[n:]
	}
	if int(vals[1]) != s.alpha {
		return compat.Mismatch("alpha", s.alpha, vals[1])
	}
	if int(vals[2]) != s.lmax {
		return compat.Mismatch("levels", s.lmax, vals[2])
	}
	if vals[3] < 1 || vals[3] > uint64(s.lmax)+1 {
		return ErrBadEncoding
	}
	in.n, in.virginFrom = vals[0], int(vals[3])
	var err error
	if in.shared, data, err = s.readSketch(data); err != nil {
		return err
	}
	// Singleton level.
	y0, n := binary.Uvarint(data)
	if n <= 0 {
		return ErrBadEncoding
	}
	data = data[n:]
	cnt, n := binary.Uvarint(data)
	if n <= 0 {
		return ErrBadEncoding
	}
	data = data[n:]
	// Each singleton entry costs at least two bytes of payload, so a
	// count beyond the remaining bytes is hostile; checking before the
	// map pre-size keeps a forged count from forcing a giant allocation.
	if cnt > uint64(len(data)) {
		return ErrBadEncoding
	}
	oz := levelZero{buckets: make(map[uint64]*bucket, cnt), y: y0}
	in.s0 = &oz
	for i := uint64(0); i < cnt; i++ {
		y, n := binary.Uvarint(data)
		if n <= 0 {
			return ErrBadEncoding
		}
		data = data[n:]
		var sk sketch.Sketch
		if sk, data, err = s.readSketch(data); err != nil {
			return err
		}
		if dup := oz.buckets[y]; dup != nil {
			sketch.Recycle(s.maker, dup.sk) // a forged image; the later entry wins
		}
		oz.buckets[y] = &bucket{iv: dyadic.Interval{L: y, R: y}, sk: sk, sa: s.slotAdderOf(sk)}
	}
	// Bucket-tree levels.
	in.levels = make([]*level, s.lmax+1)
	root := dyadic.Root(s.cfg.YMax)
	for i := 1; i <= s.lmax; i++ {
		yv, n := binary.Uvarint(data)
		if n <= 0 {
			return ErrBadEncoding
		}
		data = data[n:]
		cv, n := binary.Uvarint(data)
		if n <= 0 {
			return ErrBadEncoding
		}
		data = data[n:]
		lv := &level{idx: i, y: yv, count: int(cv), thresh: s.levels[i].thresh}
		if lv.root, data, err = s.readNode(data, root); err != nil {
			return err
		}
		if lv.root == nil {
			return ErrBadEncoding
		}
		in.levels[i] = lv
	}
	if len(data) != 0 {
		return ErrBadEncoding
	}
	return nil
}

// ApplyMergeImage folds a parsed image into the summary it was parsed
// against. An image may be applied at most once (its buckets are adopted
// into the receiver), and only by its owner.
func (s *Summary) ApplyMergeImage(img *MergeImage) error {
	if img == nil || img.owner != s {
		return errors.New("core: merge image was parsed against a different summary")
	}
	if img.applied {
		return errors.New("core: merge image already applied")
	}
	img.applied = true
	s.mergeIncoming(img.in)
	return nil
}

// mergeIncoming performs the actual merge; in has been validated.
func (s *Summary) mergeIncoming(in incoming) {
	newVF := s.virginFrom
	if in.virginFrom > newVF {
		newVF = in.virginFrom
	}
	s.mergeLevel0(in)
	// Levels materialized on at least one side merge tree against tree
	// (with a virgin side standing in as "open root holding the shared
	// whole-stream sketch"). Levels virgin on both sides stay represented
	// by the shared sketch, merged below.
	for i := 1; i < newVF; i++ {
		s.mergeTreeLevel(i, in)
	}
	// Same-or-equivalent maker merges cannot fail.
	_ = s.shared.Merge(in.shared)
	if in.owned {
		sketch.Recycle(s.maker, in.shared)
	}
	s.virginFrom = newVF
	s.n += in.n
	// The merged whole-stream sketch may have crossed further virgin
	// levels' closing thresholds; zeroing the budget forces the check.
	s.sharedBudget = 0
	if s.virginFrom <= s.lmax {
		s.checkVirgin(0)
	}
}

// mergeLevel0 unions the singleton levels: the merged watermark is the
// minimum of the two sides', singletons at or past it are dropped (they
// could never serve a query, and sequential ingestion of the union would
// not have stored them), per-y sketches are added, and the level is
// evicted back to capacity.
func (s *Summary) mergeLevel0(in incoming) {
	z, oz := &s.s0, in.s0
	if oz.y < z.y {
		z.y = oz.y
		dropped := false
		for y, b := range z.buckets {
			if y >= z.y {
				sketch.Recycle(s.maker, b.sk)
				b.sk, b.sa = nil, nil
				delete(z.buckets, y)
				dropped = true
			}
		}
		if dropped {
			z.ys = z.ys[:0]
			for y := range z.buckets {
				heapPushU64(&z.ys, y)
			}
		}
	}
	for y, ob := range oz.buckets {
		if y >= z.y {
			if in.owned {
				sketch.Recycle(s.maker, ob.sk)
			}
			continue
		}
		b := z.buckets[y]
		switch {
		case b != nil:
			_ = b.sk.Merge(ob.sk)
			if in.owned {
				sketch.Recycle(s.maker, ob.sk)
			}
		case in.owned:
			z.buckets[y] = ob
			heapPushU64(&z.ys, y)
		default:
			b = &bucket{iv: dyadic.Interval{L: y, R: y}}
			s.attachSketch(b)
			_ = b.sk.Merge(ob.sk)
			z.buckets[y] = b
			heapPushU64(&z.ys, y)
		}
	}
	s.evict0()
}

// mergeTreeLevel merges level i of the incoming summary into the
// receiver's level i. At least one side is materialized; a virgin side
// contributes its shared whole-stream sketch through the root bucket.
func (s *Summary) mergeTreeLevel(i int, in incoming) {
	lv := s.levels[i]
	if i >= s.virginFrom {
		// Materialize the receiver's virgin root from its own shared
		// sketch — open, not closed: the closing decision is re-made
		// below from the merged contents, with the same threshold rule
		// Algorithm 2 applies.
		cp := s.maker.New()
		_ = cp.Merge(s.shared)
		lv.root.sk = cp
		lv.root.sa = s.slotAdderOf(cp)
	}
	if i >= in.virginFrom {
		// The other side is virgin here: its entire level-i content is
		// its whole-stream sketch, which belongs in the root bucket.
		_ = lv.root.sk.Merge(in.shared)
	} else {
		olv := in.levels[i]
		s.mergeNode(lv.root, olv.root, in.owned)
		if olv.y < lv.y {
			lv.y = olv.y
		}
	}
	lv.count = s.recloseAndCount(lv, lv.root)
	s.wm[i] = lv.y
	s.cache[i] = nil
	for lv.count > s.alpha {
		s.discardMax(lv)
	}
}

// mergeNode folds src (same dyadic interval, from the incoming summary)
// into dst. Children missing on one side are adopted (owned) or deep-
// copied through the receiver's maker. Internal nodes are closed by
// construction on whichever side split them, so the merged tree keeps the
// "internal implies closed" invariant.
func (s *Summary) mergeNode(dst, src *bucket, owned bool) {
	if src.sk != nil {
		if dst.sk == nil {
			s.attachSketch(dst)
		}
		_ = dst.sk.Merge(src.sk)
		if owned {
			sketch.Recycle(s.maker, src.sk)
			src.sk, src.sa = nil, nil
		}
	}
	if src.closed {
		dst.closed = true
	}
	if src.left != nil {
		if dst.left != nil {
			s.mergeNode(dst.left, src.left, owned)
		} else {
			dst.left = s.importNode(src.left, owned)
		}
	}
	if src.right != nil {
		if dst.right != nil {
			s.mergeNode(dst.right, src.right, owned)
		} else {
			dst.right = s.importNode(src.right, owned)
		}
	}
}

// importNode brings a subtree the receiver does not have into the merged
// tree: adopted as-is when the nodes already belong to the receiver's
// maker, deep-copied otherwise.
func (s *Summary) importNode(src *bucket, owned bool) *bucket {
	if src == nil {
		return nil
	}
	if owned {
		return src
	}
	b := &bucket{iv: src.iv, closed: src.closed}
	if src.sk != nil {
		b.sk = s.maker.New()
		_ = b.sk.Merge(src.sk)
		b.sa = s.slotAdderOf(b.sk)
	}
	b.left = s.importNode(src.left, false)
	b.right = s.importNode(src.right, false)
	return b
}

// recloseAndCount re-runs the closing decision on every merged bucket —
// an open bucket whose merged estimate now clears the level threshold
// closes, exactly as Algorithm 2 would have closed it — compacts the closed
// ones (a merge into one undid that), resets the optimization budgets, and
// returns the number of stored buckets.
func (s *Summary) recloseAndCount(lv *level, b *bucket) int {
	if b == nil {
		return 0
	}
	if !b.closed && !b.iv.Single() && b.sk != nil &&
		sketch.CheapEstimate(b.sk) >= lv.thresh {
		b.closed = true
	}
	compactClosed(b)
	b.closeBudget = 0
	return 1 + s.recloseAndCount(lv, b.left) + s.recloseAndCount(lv, b.right)
}

// install replaces the summary's state with a decoded wire image (the
// restore side of UnmarshalBinary), recycling the previous state's
// sketches into the maker's pool. The incoming state must be owned
// (its buckets were built by this summary's maker).
func (s *Summary) install(in incoming) {
	for _, b := range s.s0.buckets {
		sketch.Recycle(s.maker, b.sk)
		b.sk, b.sa = nil, nil
	}
	for i := 1; i <= s.lmax; i++ {
		s.recycleTree(s.levels[i].root)
	}
	sketch.Recycle(s.maker, s.shared)
	s.n = in.n
	s.virginFrom = in.virginFrom
	s.sharedBudget = 0 // force a fresh materialization check
	s.shared = in.shared
	s.sharedSA = s.slotAdderOf(in.shared)
	s.s0 = *in.s0
	s.s0.ys = s.s0.ys[:0]
	for y := range s.s0.buckets {
		heapPushU64(&s.s0.ys, y)
	}
	for i := 1; i <= s.lmax; i++ {
		s.levels[i] = in.levels[i]
		s.wm[i] = in.levels[i].y
		s.cache[i] = nil
	}
}

// Reset returns the summary to its freshly constructed state, recycling
// every sketch into the maker's pool. It is the cheap way to reuse a
// summary as a merge accumulator (merge-then-query over site summaries)
// or across stream epochs without rebuilding hash functions.
func (s *Summary) Reset() {
	for _, b := range s.s0.buckets {
		sketch.Recycle(s.maker, b.sk)
		b.sk, b.sa = nil, nil
	}
	s.s0 = levelZero{buckets: make(map[uint64]*bucket), y: noWatermark}
	for i := 1; i <= s.lmax; i++ {
		s.recycleTree(s.levels[i].root)
		s.levels[i] = &level{
			idx:    i,
			root:   &bucket{iv: dyadic.Root(s.cfg.YMax)},
			y:      noWatermark,
			count:  1,
			thresh: s.levels[i].thresh,
		}
	}
	for i := range s.cache {
		s.cache[i] = nil
	}
	for i := range s.wm {
		s.wm[i] = noWatermark
	}
	sketch.Recycle(s.maker, s.shared)
	s.shared = s.maker.New()
	s.sharedSA = s.slotAdderOf(s.shared)
	s.virginFrom = 1
	s.sharedBudget = 0
	s.n = 0
}

// recycleTree returns every sketch in the subtree to the maker's pool.
func (s *Summary) recycleTree(b *bucket) {
	if b == nil {
		return
	}
	sketch.Recycle(s.maker, b.sk)
	b.sk, b.sa = nil, nil
	s.recycleTree(b.left)
	s.recycleTree(b.right)
}
