package core

import (
	"errors"
	"math"

	"github.com/streamagg/correlated/internal/dyadic"
)

// Config parameterizes a correlated-aggregate Summary.
type Config struct {
	// Eps is the target relative error ε ∈ (0, 1).
	Eps float64

	// Delta is the failure probability δ ∈ (0, 1).
	Delta float64

	// YMax is the largest y value that will ever be inserted. It is
	// rounded up to the next 2^β - 1 as the paper assumes.
	YMax uint64

	// MaxStreamLen is the bound n on the stream length used to size the
	// level count via the aggregate's FMaxLog2 (Condition I). Inserting
	// more than n items degrades the top level's no-fail guarantee but
	// nothing else.
	MaxStreamLen uint64

	// MaxX bounds item identifiers; only SUM uses it to bound fmax.
	// Zero means 2^32.
	MaxX uint64

	// Alpha overrides the per-level bucket capacity α. Zero derives it:
	// with StrictTheory, the proof value 64·c1(log ymax)/c2(ε/2);
	// otherwise the practical value max(64, ceil(AlphaScale·8·log2(ymax+1)/ε)),
	// which mirrors the constants the paper's own experiments ran with
	// (see doc.go, "Accuracy guarantees").
	Alpha int

	// AlphaScale multiplies the derived practical α. Zero means 1.
	AlphaScale float64

	// StrictTheory selects the worst-case proof constants for α and the
	// per-bucket sketch failure probability. Only feasible for additive
	// aggregates (SUM/COUNT) where c2(ε) = ε; for Fk the proof constants
	// are astronomically conservative.
	StrictTheory bool

	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64

	// NoSlotFastPath disables the hash-once slot fan-out even when the
	// aggregate's sketches support it, forcing every sketch update through
	// plain Add. The two paths produce bit-identical summaries; this knob
	// exists for equivalence tests and A/B diagnostics.
	NoSlotFastPath bool
}

// ErrNoLevel is returned by Query when no level can serve the cutoff
// (Algorithm 3 outputs FAIL). Under event G of the analysis this happens
// with probability at most δ.
var ErrNoLevel = errors.New("core: no level can answer the query (FAIL)")

// validate normalizes cfg and reports configuration errors.
func (cfg *Config) validate() error {
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		return errors.New("core: Eps must be in (0,1)")
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return errors.New("core: Delta must be in (0,1)")
	}
	if cfg.YMax == 0 {
		return errors.New("core: YMax must be positive")
	}
	cfg.YMax = dyadic.RoundYMax(cfg.YMax)
	if cfg.MaxStreamLen == 0 {
		cfg.MaxStreamLen = 1 << 32
	}
	if cfg.MaxX == 0 {
		cfg.MaxX = 1 << 32
	}
	if cfg.AlphaScale == 0 {
		cfg.AlphaScale = 1
	}
	return nil
}

// deriveAlpha computes the per-level bucket capacity for agg under cfg.
func deriveAlpha(cfg Config, agg Aggregate) int {
	if cfg.Alpha > 0 {
		return cfg.Alpha
	}
	logy := float64(log2Ceil(cfg.YMax + 1))
	if cfg.StrictTheory {
		a := 64 * agg.C1(int(logy)) / agg.C2(cfg.Eps/2)
		if a > 1<<30 {
			a = 1 << 30
		}
		return int(math.Ceil(a))
	}
	a := int(math.Ceil(cfg.AlphaScale * 8 * logy / cfg.Eps))
	if a < 64 {
		a = 64
	}
	return a
}
