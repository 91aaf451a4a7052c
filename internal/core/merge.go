package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/sketch"
	"github.com/streamagg/correlated/internal/slab"
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
// receiver — either a live *Summary (owned = false: its nodes and sketches
// sit in its own slabs, belong to a different, equivalent maker and must be
// copied) or a decoded wire image (owned = true: the nodes and sketches were
// built in the receiver's slabs and may be adopted or freed in place).
type incoming struct {
	n          uint64
	virginFrom int
	shared     uint32
	s0         *levelZero
	levels     []*level
	nodes      *slab.Slab[bucket] // what the levels' handles name
	maker      sketch.Maker       // what the sketch handles name
	owned      bool
}

// Merge folds other — a summary built from the same Config (including
// Seed) over a different substream — into the receiver, producing the
// summary of the concatenated stream. The receiver is modified; other is
// left unchanged and remains usable. Configuration mismatches are reported
// as *compat.Error values wrapping compat.ErrIncompatible, naming the
// first differing field (predicate — the directions served, named as the
// public Options field that sets them —, aggregate, eps, delta, ymax,
// seed, stricttheory, alpha, levels).
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return errors.New("core: cannot merge a nil summary")
	}
	if other == s {
		return errSelfMerge
	}
	switch {
	case s.cfg.Dirs != other.cfg.Dirs:
		return compat.Mismatch("predicate", s.cfg.Dirs, other.cfg.Dirs)
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
		nodes:      &other.nodes,
		maker:      other.maker,
	})
	return nil
}

// MergeMarshaled folds a summary serialized with MarshalBinary into the
// receiver, without materializing a second Summary: decoded buckets are
// built directly in the receiver's slabs and adopted into the
// merged structure. The bytes must come from a summary created with the
// same aggregate and Config (including Seed) — the encoding carries only
// alpha and the level count, so the remaining fields are the caller's
// responsibility, exactly as with UnmarshalBinary. The receiver is
// untouched when an error is returned.
func (s *Summary) MergeMarshaled(data []byte) error {
	in, err := s.parse(data)
	if err != nil {
		return err
	}
	s.mergeIncoming(in)
	return nil
}

// parse decodes data (a MarshalBinary image of a compatible summary) into
// the receiver's slabs without touching its state. On error what was
// decoded before the bad byte goes back to the slabs and the maker, whose
// running byte count has it on the books.
func (s *Summary) parse(data []byte) (incoming, error) {
	in := incoming{nodes: &s.nodes, maker: s.maker, owned: true}
	err := s.parseInto(&in, data)
	if err == nil {
		return in, nil
	}
	if in.shared != 0 {
		s.maker.Free(in.shared)
	}
	if in.s0 != nil {
		in.s0.buckets.each(func(_ uint64, h uint32) { s.maker.Free(h) })
	}
	for _, lv := range in.levels {
		if lv != nil {
			s.freeTree(lv.root)
		}
	}
	return incoming{}, err
}

// parseInto is parse's decode, filling in as it goes so that a
// failure leaves behind exactly what has to be discarded.
func (s *Summary) parseInto(in *incoming, data []byte) error {
	if len(data) >= 1 && data[0] == 3 {
		return fmt.Errorf("%w: core image version 3 (one direction, GE over mirrored y), which this release does not read", ErrBadEncoding)
	}
	if len(data) < 1 || data[0] != coreMarshalVersion {
		return ErrBadEncoding
	}
	data = data[1:]
	// Config-compatibility block: the image must come from a summary
	// whose configuration matches the receiver's.
	var cfgVals [6]uint64 // eps bits, delta bits, ymax, seed, stricttheory, directions
	var err error
	for i := range cfgVals {
		if cfgVals[i], data, err = uvarint(data); err != nil {
			return err
		}
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
	case cfgVals[5] != uint64(s.cfg.Dirs):
		return compat.Mismatch("predicate", s.cfg.Dirs, Dirs(cfgVals[5]))
	}
	var vals [4]uint64 // n, alpha, lmax, virginFrom
	for i := range vals {
		if vals[i], data, err = uvarint(data); err != nil {
			return err
		}
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
	if in.shared, data, err = s.readSketch(data); err != nil {
		return err
	}
	// Singleton level.
	oz := levelZero{}
	if oz.y, data, err = s.readWatermarks(data); err != nil {
		return err
	}
	cnt, data, err := uvarint(data)
	if err != nil {
		return err
	}
	// Each singleton entry costs at least two bytes of payload, so a
	// count beyond the remaining bytes is hostile; checking before the
	// map pre-size keeps a forged count from forcing a giant allocation.
	if cnt > uint64(len(data)) {
		return ErrBadEncoding
	}
	in.s0 = &oz
	for i := uint64(0); i < cnt; i++ {
		var y uint64
		if y, data, err = uvarint(data); err != nil {
			return err
		}
		if y > s.cfg.YMax {
			return ErrBadEncoding
		}
		var h uint32
		if h, data, err = s.readSketch(data); err != nil {
			return err
		}
		if dup := oz.buckets.get(y); dup != 0 {
			s.maker.Free(dup) // a forged image's duplicate; the later entry wins
		}
		oz.buckets.set(y, h)
		if s.keepers(&oz.y, y) == 0 {
			return ErrBadEncoding // a singleton no direction keeps
		}
	}
	// Bucket-tree levels.
	in.levels = make([]*level, s.lmax+1)
	for i := 1; i <= s.lmax; i++ {
		lv := &level{idx: i, thresh: s.levels[i].thresh}
		if lv.y, data, err = s.readWatermarks(data); err != nil {
			return err
		}
		if lv.root, data, err = s.readNode(data, s.span, lv, s.cfg.Dirs); err != nil {
			return err
		}
		in.levels[i] = lv
		if lv.root == 0 || s.nodes.At(lv.root).keep() != s.cfg.Dirs {
			return ErrBadEncoding
		}
	}
	if len(data) != 0 {
		return ErrBadEncoding
	}
	return nil
}

// uvarint decodes one uvarint off the front of data.
func uvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrBadEncoding
	}
	return v, data[n:], nil
}

// readWatermarks decodes the watermarks of the directions served; the
// others' are 0, which takes nothing.
func (s *Summary) readWatermarks(data []byte) ([2]uint64, []byte, error) {
	var y [2]uint64
	var err error
	for d := range dirs {
		if s.cfg.Dirs&(1<<d) != 0 {
			if y[d], data, err = uvarint(data); err != nil {
				return y, nil, err
			}
		}
	}
	return y, data, nil
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
	_ = s.sketch(s.shared).Merge(in.maker.At(in.shared))
	if in.owned {
		// What the image's trees hold beyond what the merge took: the
		// levels virgin on its side, for which its shared sketch stood.
		for i := in.virginFrom; i <= s.lmax; i++ {
			s.freeTree(in.levels[i].root)
		}
		s.maker.Free(in.shared)
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

// mergeLevel0 unions the singleton levels: each direction's merged
// watermark is the nearer of the two sides', singletons no direction keeps
// past them are dropped (they could never serve a query, and sequential
// ingestion of the union would not have stored them), per-y sketches are
// added, and each direction's share is evicted back to capacity.
func (s *Summary) mergeLevel0(in incoming) {
	z, oz := &s.s0, in.s0
	lowered := false
	for d := range dirs {
		if oz.y[d] < z.y[d] {
			z.y[d] = oz.y[d]
			lowered = true
		}
	}
	if lowered {
		var gone []uint64
		z.buckets.each(func(y uint64, h uint32) {
			if s.keepers(&z.y, y) == 0 {
				s.maker.Free(h)
				gone = append(gone, y)
			}
		})
		for _, y := range gone {
			z.buckets.del(y)
		}
	}
	oz.buckets.each(func(y uint64, oh uint32) {
		if s.keepers(&z.y, y) == 0 {
			if in.owned {
				s.maker.Free(oh)
			}
			return
		}
		h := z.buckets.get(y)
		switch {
		case h != 0:
			_ = s.sketch(h).Merge(in.maker.At(oh))
			if in.owned {
				s.maker.Free(oh)
			}
		case in.owned:
			z.buckets.set(y, oh)
		default:
			z.buckets.set(y, s.copyOf(in.maker.At(oh)))
		}
	})
	s.rebuildHeaps()
	s.evict0()
}

// mergeTreeLevel merges level i of the incoming summary into the
// receiver's level i. At least one side is materialized; a virgin side
// contributes its shared whole-stream sketch through the root bucket.
func (s *Summary) mergeTreeLevel(i int, in incoming) {
	lv := s.levels[i]
	root := s.nodes.At(lv.root)
	if i >= s.virginFrom {
		// Materialize the receiver's virgin root from its own shared
		// sketch — open, not closed: the closing decision is re-made
		// below from the merged contents, with the same threshold rule
		// Algorithm 2 applies.
		root.sk = s.copyOf(s.sketch(s.shared))
	}
	if i >= in.virginFrom {
		// The other side is virgin here: its entire level-i content is
		// its whole-stream sketch, which belongs in the root bucket.
		_ = s.sketch(root.sk).Merge(in.maker.At(in.shared))
	} else {
		olv := in.levels[i]
		s.mergeNode(lv.root, olv.root, &in)
		for d := range dirs {
			lv.y[d] = min(lv.y[d], olv.y[d])
		}
	}
	lv.count, lv.nodes = [2]int{}, 0
	s.recloseAndCount(lv, lv.root, s.span)
	s.wm[i] = lv.y
	s.cache[i] = leaf{}
	for d := range dirs {
		for lv.count[d] > s.alpha {
			s.discard(lv, d)
		}
	}
}

// mergeNode folds the incoming node sh (same dyadic interval) into the
// receiver's node dh, which then is kept by every direction that keeps
// either. Children missing on one side are adopted (owned) or deep-copied
// into the receiver's slabs; an owned node whose content went into dh is
// freed. Internal nodes are closed by construction on whichever side split
// them, so the merged tree keeps the "internal implies closed" invariant. A
// folded bucket (see Summary) stays closed, holding whatever sketch the
// other side brings: its own counters are in its head's, which merges like
// any other, and every query that takes it takes its head, so the merged
// answers are those of the trees unfolded.
func (s *Summary) mergeNode(dh, sh uint32, in *incoming) {
	dst, src := s.nodes.At(dh), in.nodes.At(sh)
	dst.setKeep(dst.keep() | src.keep())
	if src.sk != 0 {
		if dst.sk == 0 {
			dst.sk = s.maker.Alloc()
		}
		_ = s.sketch(dst.sk).Merge(in.maker.At(src.sk))
	}
	if src.isClosed() {
		dst.setBudget(closed)
	}
	if src.left != 0 {
		if dst.left != 0 {
			s.mergeNode(dst.left, src.left, in)
		} else {
			dst.left = s.importNode(src.left, in)
		}
	}
	if src.right != 0 {
		if dst.right != 0 {
			s.mergeNode(dst.right, src.right, in)
		} else {
			dst.right = s.importNode(src.right, in)
		}
	}
	if in.owned {
		s.drop(sh)
	}
}

// importNode brings an incoming subtree the receiver does not have into the
// merged tree: adopted as-is when the nodes already sit in the receiver's
// slabs, deep-copied otherwise.
func (s *Summary) importNode(sh uint32, in *incoming) uint32 {
	if sh == 0 || in.owned {
		return sh
	}
	src := in.nodes.At(sh)
	h := s.node()
	b := s.nodes.At(h)
	b.setKeep(src.keep())
	if src.isClosed() {
		b.setBudget(closed)
	}
	if src.sk != 0 {
		b.sk = s.copyOf(in.maker.At(src.sk))
	}
	b.left = s.importNode(src.left, in)
	b.right = s.importNode(src.right, in)
	return h
}

// recloseAndCount re-runs the closing decision on every merged bucket —
// an open bucket whose merged estimate now clears the level threshold
// closes, exactly as Algorithm 2 would have closed it — compacts the closed
// ones (a merge into one undid that), resets the optimization budgets, and
// counts the buckets of h's subtree, which spans iv, into lv.
func (s *Summary) recloseAndCount(lv *level, h uint32, iv dyadic.Interval) {
	if h == 0 {
		return
	}
	b := s.nodes.At(h)
	switch {
	case b.isClosed():
	case !iv.Single() && b.sk != 0 && sketch.CheapEstimate(s.sketch(b.sk)) >= lv.thresh:
		b.setBudget(closed)
	default:
		b.setBudget(0)
	}
	s.compactClosed(b, iv)
	lv.hold(b.keep(), 1)
	if b.isLeaf() {
		return
	}
	lc, rc := iv.Children()
	s.recloseAndCount(lv, b.left, lc)
	s.recloseAndCount(lv, b.right, rc)
}

// install replaces the summary's state with a decoded wire image (the
// restore side of UnmarshalBinary), freeing the previous state's nodes and
// sketches for the next ones. The incoming state must be owned (its
// buckets were built in this summary's slabs).
func (s *Summary) install(in incoming) {
	s.free()
	s.n = in.n
	s.virginFrom = in.virginFrom
	s.sharedBudget = 0 // force a fresh materialization check
	s.shared = in.shared
	s.sharedSA = s.slotAdderOf(s.sketch(in.shared))
	ys := s.s0.ys
	s.s0 = *in.s0
	s.s0.ys = ys
	s.rebuildHeaps()
	for i := 1; i <= s.lmax; i++ {
		s.levels[i] = in.levels[i]
		s.wm[i] = in.levels[i].y
		s.cache[i] = leaf{}
	}
}

// Reset returns the summary to its freshly constructed state, freeing
// every node and sketch for the next ones. It is the cheap way to reuse a
// summary as a merge accumulator (merge-then-query over site summaries)
// or across stream epochs without rebuilding hash functions. A maker that
// keeps an arena lays it out afresh once every block is back (settler), so
// what the next stream's sketches take does not depend on the last one's.
func (s *Summary) Reset() {
	s.free()
	if st, ok := s.maker.(settler); ok {
		st.Settle()
	}
	s.empty()
}

// settler is a maker that can lay its storage out afresh once no sketch
// holds any of it.
type settler interface{ Settle() }

// free gives back every node and sketch the summary holds, leaving it
// without state until empty or install gives it some.
func (s *Summary) free() {
	s.s0.buckets.each(func(_ uint64, h uint32) { s.maker.Free(h) })
	for i := 1; i <= s.lmax; i++ {
		s.freeTree(s.levels[i].root)
	}
	s.maker.Free(s.shared)
}

// freeTree gives back every node of the subtree at h and its sketches.
func (s *Summary) freeTree(h uint32) {
	if h == 0 {
		return
	}
	b := s.nodes.At(h)
	left, right := b.left, b.right
	s.drop(h)
	s.freeTree(left)
	s.freeTree(right)
}
