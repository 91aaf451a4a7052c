package main

import (
	"strings"
	"testing"
	"time"

	"github.com/streamagg/correlated/internal/gen"
)

// TestPercentileMsIsNearestRank: the p-th percentile is the smallest sample
// with at least p % of the samples at or below it, so a small sample's tail
// reads its largest latency, not one below it.
func TestPercentileMsIsNearestRank(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = i + 1
	}
	for _, c := range []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   float64
	}{
		{"no samples", nil, 99, 0},
		{"one sample", ms(7), 50, 7},
		{"p99 of two", ms(1, 9), 99, 9},
		{"p50 of two", ms(1, 9), 50, 1},
		{"p99 of three", ms(1, 2, 30), 99, 30},
		{"p50 of ten", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 50, 5},
		{"p99 of a hundred", ms(hundred...), 99, 99},
		{"p100 of a hundred", ms(hundred...), 100, 100},
		{"p1 of a hundred", ms(hundred...), 1, 1},
	} {
		if got := percentileMs(c.sorted, c.p); got != c.want {
			t.Errorf("%s: p%g = %v ms, want %v", c.name, c.p, got, c.want)
		}
	}
}

// drain reads a stream to its end.
func drain(s gen.Stream) []gen.Tuple {
	var out []gen.Tuple
	for {
		tp, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, tp)
	}
}

// TestSharesSplitTheBudget: the substreams share the n tuples out exactly,
// no two shares more than one tuple apart, and each share draws what the
// single-stream command draws at its documented oracle flags,
// -seed seed+i·1000003 -n share, for every dataset.
func TestSharesSplitTheBudget(t *testing.T) {
	oracles := map[string]func(n int, xdom, ydom, seed uint64) gen.Stream{
		"uniform":  func(n int, xdom, ydom, seed uint64) gen.Stream { return gen.Uniform(n, xdom, ydom, seed) },
		"zipf1":    func(n int, xdom, ydom, seed uint64) gen.Stream { return gen.Zipf(n, xdom, ydom, 1.0, seed) },
		"zipf2":    func(n int, xdom, ydom, seed uint64) gen.Stream { return gen.Zipf(n, xdom, ydom, 2.0, seed) },
		"ethernet": func(n int, _, _, seed uint64) gen.Stream { return gen.Ethernet(n, seed) },
	}
	for dataset, oracle := range oracles {
		for _, n := range []int{0, 1, 7, 1000} {
			for _, ways := range []int{1, 3, 4, 64} {
				cfg := &loadConfig{dataset: dataset, n: n, seed: 11, xdom: 5001, ydom: 10001}
				total, least, most := 0, n, 0
				for i := 0; i < ways; i++ {
					s, err := substream(cfg, i, ways)
					if err != nil {
						t.Fatal(err)
					}
					got := drain(s)
					total += len(got)
					least, most = min(least, len(got)), max(most, len(got))
					want := drain(oracle(len(got), cfg.xdom, cfg.ydom, cfg.seed+uint64(i)*1_000_003))
					if len(got) != len(want) {
						t.Fatalf("%s n=%d substream %d of %d: %d tuples, the oracle %d", dataset, n, i, ways, len(got), len(want))
					}
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("%s n=%d substream %d of %d: tuple %d is %v, the oracle's %v", dataset, n, i, ways, k, got[k], want[k])
						}
					}
				}
				if total != n || most-least > 1 {
					t.Fatalf("%s n=%d over %d substreams: %d tuples in shares of %d to %d", dataset, n, ways, total, least, most)
				}
			}
		}
	}
}

// TestUnknownDatasetRefused: a dataset name the generator does not know is
// refused, by name, on every path that builds a stream.
func TestUnknownDatasetRefused(t *testing.T) {
	cfg := &loadConfig{dataset: "zipf3", n: 10, seed: 1}
	for name, build := range map[string]func() (gen.Stream, error){
		"makeStream": func() (gen.Stream, error) { return makeStream(cfg, cfg.n, cfg.seed) },
		"substream":  func() (gen.Stream, error) { return substream(cfg, 1, 2) },
	} {
		if s, err := build(); err == nil || s != nil || !strings.Contains(err.Error(), `"zipf3"`) {
			t.Errorf("%s: stream %v, error %v; want a refusal naming \"zipf3\"", name, s, err)
		}
	}
}
