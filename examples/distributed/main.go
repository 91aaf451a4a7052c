// Command distributed demonstrates the paper's distributed model: four
// "sites" each summarize their local substream, serialize their summary
// (MarshalBinary — the bytes a real deployment would ship over the
// network), and a coordinator folds the wire images into one summary with
// MergeMarshaled, then answers cutoff queries over the union stream. The
// answers are compared against exact brute-force aggregation.
package main

import (
	"fmt"
	"log"

	correlated "github.com/streamagg/correlated"
)

const (
	sites  = 4
	nTotal = 400_000
	ymax   = 1 << 20
	xdom   = 1 << 14
)

func main() {
	// All participants must share the same Options — the Seed regenerates
	// the hash functions, which is what makes the summaries mergeable.
	opts := correlated.Options{
		Eps: 0.15, Delta: 0.1, YMax: ymax,
		MaxStreamLen: nTotal, MaxX: xdom, Seed: 42,
	}

	site := make([]*correlated.F2Summary, sites)
	for i := range site {
		s, err := correlated.NewF2Summary(opts)
		if err != nil {
			log.Fatal(err)
		}
		site[i] = s
	}
	// Synthetic stream, partitioned round-robin across sites; keep exact
	// frequencies per cutoff band for verification.
	freq := make(map[uint64]map[uint64]float64) // cutoff -> x -> weight
	cuts := []uint64{ymax / 8, ymax / 2, ymax - 1}
	for _, c := range cuts {
		freq[c] = make(map[uint64]float64)
	}
	rng := uint64(1)
	next := func() uint64 { // xorshift, deterministic and dependency-free
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < nTotal; i++ {
		x := next() % xdom
		y := next() % (ymax + 1)
		if err := site[i%sites].Add(x, y); err != nil {
			log.Fatal(err)
		}
		for _, c := range cuts {
			if y <= c {
				freq[c][x]++
			}
		}
	}

	// Each site ships its summary; the coordinator merges the wire images
	// into a fresh summary built from the same Options.
	coord, err := correlated.NewF2Summary(opts)
	if err != nil {
		log.Fatal(err)
	}
	var wireBytes int
	for i, s := range site {
		wire, err := s.MarshalBinary()
		if err != nil {
			log.Fatal(err)
		}
		wireBytes += len(wire)
		if err := coord.MergeMarshaled(wire); err != nil {
			log.Fatalf("merging site %d: %v", i, err)
		}
	}
	fmt.Printf("coordinator merged %d sites (%d wire bytes, %d tuples)\n",
		sites, wireBytes, coord.Count())
	fmt.Println("cutoff\t\texact F2\tmerged est\trel err")
	for _, c := range cuts {
		var exact float64
		for _, f := range freq[c] {
			exact += f * f
		}
		est, err := coord.QueryLE(c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9d\t%.4g\t%.4g\t%+.3f\n", c, exact, est, est/exact-1)
	}

	// Merging mismatched configurations is rejected with a typed error —
	// on the live path and on the wire path (the image carries the source
	// configuration).
	other, _ := correlated.NewF2Summary(correlated.Options{
		Eps: 0.15, Delta: 0.1, YMax: ymax, MaxStreamLen: nTotal, MaxX: xdom,
		Seed: 43, // different seed: different hash functions
	})
	if err := coord.Merge(other); err != nil {
		fmt.Printf("mismatched site rejected (live): %v\n", err)
	}
	if badWire, err := other.MarshalBinary(); err == nil {
		if err := coord.MergeMarshaled(badWire); err != nil {
			fmt.Printf("mismatched site rejected (wire): %v\n", err)
		}
	}
}
