package main

// xy is one generated tuple, narrow enough to keep millions of them
// without the bookkeeping showing up beside the load.
type xy struct{ x, y uint32 }

// truth holds, for one tenant, the exact answer to every query the
// harness checks: F2 over y <= c and over y >= c at each cutoff.
//
// internal/exact is the repository's reference for these numbers and
// the tests hold this type to it. It is not used directly because it
// sorts and hashes every tuple, which on the millions of tuples of a
// saturating run adds four to five seconds to every run.
type truth struct {
	count  uint64
	le, ge []float64 // indexed like cutoffs
}

// exactAnswers counts per-identifier frequencies on either side of each
// cutoff in one pass over the logs, then squares and sums them.
func exactAnswers(logs ...[]xy) truth {
	le := make([][]int32, len(cutoffs))
	ge := make([][]int32, len(cutoffs))
	for i := range cutoffs {
		le[i], ge[i] = make([]int32, xdom), make([]int32, xdom)
	}
	var t truth
	for _, log := range logs {
		t.count += uint64(len(log))
		for _, p := range log {
			for i, c := range cutoffs {
				if uint64(p.y) <= c {
					le[i][p.x]++
				}
				if uint64(p.y) >= c {
					ge[i][p.x]++
				}
			}
		}
	}
	f2 := func(freq []int32) (s float64) {
		for _, f := range freq {
			s += float64(f) * float64(f)
		}
		return s
	}
	for i := range cutoffs {
		t.le = append(t.le, f2(le[i]))
		t.ge = append(t.ge, f2(ge[i]))
	}
	return t
}
