package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestOccupancyTableAddsUp: at n = 20 000, each shape's level rows — with the
// virgin levels the table leaves out, two counters each — add up to its
// summary line's space and bytes, the footprint line's held bytes are the
// same figure, and the headers it prints are the summary's Footprint().Headers.
func TestOccupancyTableAddsUp(t *testing.T) {
	const n = 20_000
	var out bytes.Buffer
	occupancyTable(&out, n)

	type shape struct {
		counters, bytes       int64 // the printed rows, added up
		virgin                int   // levels left out, over both directions
		space, held           int64 // the summary line
		fpHeld, fpPooled, hdr int64 // the footprint line
		lines                 int
	}
	shapes := map[string]*shape{}
	get := func(name string) *shape {
		name = strings.TrimSuffix(name, ":")
		if shapes[name] == nil {
			shapes[name] = &shape{}
		}
		return shapes[name]
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var name, dir string
		var a, b, c int64
		var k int
		switch {
		case strings.HasPrefix(line, "shape\t"), strings.HasPrefix(line, "# Occupancy"):
		case strings.Contains(line, " further levels are virgin"):
			if _, err := fmt.Sscanf(line, "# %s %s %d further", &name, &dir, &k); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			get(name).virgin += k
		case strings.Contains(line, ": space "):
			if _, err := fmt.Sscanf(line, "# %s space %d counters in %d bytes", &name, &a, &b); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			sh := get(name)
			sh.space, sh.held = a, b
			sh.lines++
		case strings.Contains(line, ": footprint "):
			if _, err := fmt.Sscanf(line, "# %s footprint held %d, pooled %d, headers %d bytes", &name, &a, &b, &c); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			sh := get(name)
			sh.fpHeld, sh.fpPooled, sh.hdr = a, b, c
			sh.lines++
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unexpected comment line %q", line)
		default:
			f := strings.Split(line, "\t")
			if len(f) != 12 {
				t.Fatalf("row %q has %d fields, want 12", line, len(f))
			}
			counters, err1 := strconv.ParseInt(f[9], 10, 64)
			held, err2 := strconv.ParseInt(f[10], 10, 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("row %q: %v %v", line, err1, err2)
			}
			sh := get(f[0])
			sh.counters += counters
			sh.bytes += held
		}
	}

	for _, preset := range []occupancyShape{{"uniform", n, 256, false}, {"zipf1", n, 256, true}} {
		sh := shapes[preset.name]
		if sh == nil || sh.lines != 2 {
			t.Fatalf("%s: want a space line and a footprint line in\n%s", preset.name, out.String())
		}
		// An untouched virgin root is two counters, a word each.
		if got := sh.counters + 2*int64(sh.virgin); got != sh.space {
			t.Errorf("%s: rows add up to %d counters, the summary line says %d", preset.name, got, sh.space)
		}
		if got := sh.bytes + 16*int64(sh.virgin); got != sh.held || sh.fpHeld != sh.held {
			t.Errorf("%s: rows add up to %d bytes, the summary line says %d and the footprint %d", preset.name, got, sh.held, sh.fpHeld)
		}
		f := occupancySummary(preset).Footprint()
		if sh.hdr != f.Headers || sh.fpHeld != f.Held || sh.fpPooled != f.Pooled {
			t.Errorf("%s: printed footprint held %d, pooled %d, headers %d; Footprint() is %+v", preset.name, sh.fpHeld, sh.fpPooled, sh.hdr, f)
		}
		if f.Headers == 0 {
			t.Errorf("%s: no header bytes; the test lost its point", preset.name)
		}
	}
}
