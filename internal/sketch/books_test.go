package sketch

import (
	"fmt"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// TestMakerBooksAreTheWalk drives one maker's sketches through everything
// that moves a table or an array — first tables, growth, both table
// widenings, promotion, the three array widenings, cuts, merges (into itself
// too), composition, resets, recycling past every list's bound, image round
// trips into fresh and into used sketches, images that fail half-way — and
// after every step compares the maker's running counts with a walk of the
// sketches it has out: HeldBytes is Σ Bytes, HeaderBytes counts exactly those
// structs, and the free lists stay inside their bound.
func TestMakerBooksAreTheWalk(t *testing.T) {
	m := NewF2Maker(32, 3, hash.New(9)) // promotes past 24 pairs
	rng := hash.New(77)
	var out []*CountSketch
	seen := map[string]int{}

	check := func(step int, op string) {
		t.Helper()
		sum, dense := 0, 0
		for _, c := range out {
			sum += c.Bytes()
			if c.dense {
				dense++
			}
		}
		if got := m.HeldBytes(); got != sum {
			t.Fatalf("step %d (%s): HeldBytes %d, the %d sketches out hold %d", step, op, got, len(out), sum)
		}
		if got, want := m.HeaderBytes(), len(out)*countSketchBytes+dense*denseStateBytes; got != want {
			t.Fatalf("step %d (%s): HeaderBytes %d, want %d for %d sketches, %d dense", step, op, got, want, len(out), dense)
		}
		if pooled, bound := m.PooledBytes(); pooled < 0 || pooled > bound {
			t.Fatalf("step %d (%s): PooledBytes %d of at most %d", step, op, pooled, bound)
		}
	}
	// note records which storage moves a step on c made.
	type shape struct {
		dense     bool
		cw, rung  uint8
		words     int
		cut, none bool
	}
	shapeOf := func(c *CountSketch) shape {
		return shape{c.dense, c.cw, c.rung, len(c.tab), !c.dense && c.n > 0 && c.cut(), !c.dense && c.tab == nil}
	}
	note := func(before, after shape) {
		if after.dense {
			// One step can climb several widths: every rung is a widen.
			for cw := max(before.cw, 1) * 2; cw <= after.cw; cw *= 2 {
				seen[fmt.Sprintf("widen to %d", cw)]++
			}
		}
		switch {
		case !before.dense && after.dense:
			seen["promote"]++
		case before.dense && !after.dense:
			seen["dense reset"]++
		case !after.dense && after.rung > before.rung:
			seen[fmt.Sprintf("table to rung %d", after.rung)]++
		case !after.dense && before.none && !after.none:
			seen["first table"]++
		case !after.dense && !before.cut && after.cut:
			seen["cut"]++
		case !after.dense && before.cut && !after.cut && !after.none:
			seen["cut table hashed again"]++
		case !after.dense && after.words > before.words:
			seen["grow"]++
		}
	}
	pick := func() *CountSketch { return out[rng.Uint64n(uint64(len(out)))] }
	// Identifiers from a small domain so pairs collide and cancel, sometimes
	// past 2^24 and 2^32 for the wider slots; weights that overflow every
	// counter width in turn.
	someX := func() uint64 {
		switch rng.Uint64n(40) {
		case 0:
			return 1<<24 + rng.Uint64n(8)
		case 1:
			return 1<<32 + rng.Uint64n(8)
		}
		return rng.Uint64n(64)
	}
	someW := func() int64 {
		w := []int64{1, 1, 1, 2, 3, 100, 1 << 10, 1 << 20, 1 << 40}[rng.Uint64n(9)]
		if rng.Uint64n(4) == 0 {
			w = -w
		}
		return w
	}

	const steps = 100_000
	for step := 0; step < steps; step++ {
		if len(out) == 0 {
			out = append(out, m.New().(*CountSketch))
		}
		op := ""
		switch r := rng.Uint64n(100); {
		case r < 12:
			op = "new"
			out = append(out, m.New().(*CountSketch))
		case r < 70:
			op = "add"
			c := pick()
			before := shapeOf(c)
			c.Add(someX(), someW())
			note(before, shapeOf(c))
		case r < 76:
			op = "compact"
			c := pick()
			before := shapeOf(c)
			c.Compact()
			note(before, shapeOf(c))
		case r < 82:
			op = "merge"
			c, o := pick(), pick()
			if c == o {
				seen["self merge"]++
			}
			before := shapeOf(c)
			if err := c.Merge(o); err != nil {
				t.Fatal(err)
			}
			note(before, shapeOf(c))
		case r < 84:
			op = "compose"
			parts := make([]Sketch, 1+rng.Uint64n(4))
			for i := range parts {
				parts[i] = pick()
			}
			out = append(out, m.compose(parts).(*CountSketch))
		case r < 87:
			op = "reset"
			c := pick()
			before := shapeOf(c)
			c.Reset()
			note(before, shapeOf(c))
		case r < 93:
			op = "round trip"
			img, err := pick().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var c *CountSketch
			if rng.Uint64n(2) == 0 {
				c = m.New().(*CountSketch)
				out = append(out, c)
			} else {
				c = pick() // whatever it held is replaced
				seen["unmarshal over a used sketch"]++
			}
			if rng.Uint64n(4) == 0 && len(img) > 8 {
				// An image cut short fails part-way in; what was decoded
				// before the cut stays with the sketch, and on the books.
				if err := c.UnmarshalBinary(img[:len(img)-1-int(rng.Uint64n(4))]); err == nil {
					t.Fatal("a truncated image decoded")
				}
				seen["failed unmarshal"]++
			} else if err := c.UnmarshalBinary(img); err != nil {
				t.Fatal(err)
			}
		default:
			op = "recycle"
			// Usually one; once more are out than the lists can take back,
			// sooner or later all of them at once.
			n := 1
			if len(out) > maxPool+maxTablePool && rng.Uint64n(4) == 0 {
				n = len(out)
				seen["recycle burst"]++
			}
			for ; n > 0 && len(out) > 0; n-- {
				i := rng.Uint64n(uint64(len(out)))
				m.Recycle(out[i])
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
			}
		}
		check(step, op)
	}
	for _, c := range out {
		m.Recycle(c)
	}
	out = nil
	check(steps, "everything recycled")
	if m.HeldBytes() != 0 || m.HeaderBytes() != 0 {
		t.Fatalf("with nothing out the books read %d held, %d headers", m.HeldBytes(), m.HeaderBytes())
	}
	for _, what := range []string{
		"first table", "grow", "table to rung 1", "table to rung 2", "promote",
		"widen to 2", "widen to 4", "widen to 8", "cut", "cut table hashed again", "dense reset",
		"self merge", "unmarshal over a used sketch", "failed unmarshal", "recycle burst",
	} {
		if seen[what] < 20 {
			t.Errorf("%s: seen %d times, want at least 20", what, seen[what])
		}
	}
	t.Logf("seen: %v", seen)
}
