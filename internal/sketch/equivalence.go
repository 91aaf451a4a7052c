package sketch

// Maker equivalence.
//
// Sketches merge by exploiting linearity under shared hash functions.
// Within one process that usually means "created by the same Maker", and
// each Merge accepts that case with a cheap pointer comparison. But the
// distributed use case — site summaries built in different processes (or
// simply constructed independently) from the same seed, then merged at a
// coordinator — produces distinct Maker objects whose hash functions are
// nevertheless identical, because every maker draws them deterministically
// from the configuration's seeded RNG. The equivalent methods below
// compare makers by value (geometry plus hash-function coefficients), so
// Merge can accept exactly the pairs that are mathematically mergeable and
// reject everything else with ErrIncompatible.

// equivalent reports whether two F2 makers produce interchangeable
// sketches: same geometry and identical row hash functions.
func (m *F2Maker) equivalent(o *F2Maker) bool {
	if o == m {
		return true
	}
	if o == nil || m.width != o.width || m.depth != o.depth {
		return false
	}
	for i := range m.rowH {
		if !m.rowH[i].Equal(o.rowH[i]) {
			return false
		}
	}
	return true
}

// equivalent reports whether two Fk makers produce interchangeable
// sketches: same moment order, level/candidate geometry, sampling hash,
// and per-level CountSketch maker.
func (m *FkMaker) equivalent(o *FkMaker) bool {
	if o == m {
		return true
	}
	return o != nil && m.k == o.k && m.levels == o.levels &&
		m.trackCap == o.trackCap && m.sampleH.Equal(o.sampleH) &&
		m.csMaker.equivalent(o.csMaker)
}

// equivalent reports whether two L1 makers produce interchangeable
// sketches.
func (m *L1Maker) equivalent(o *L1Maker) bool {
	if o == m {
		return true
	}
	return o != nil && m.k == o.k && m.h.Equal(o.h)
}
