package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	correlated "github.com/streamagg/correlated"
)

// TestOccupancyTableAddsUp: at n = 20 000, each shape's level rows — with the
// virgin levels the table leaves out, two counters each — add up to its
// summary line's space and bytes, and their folded buckets, never more than
// the closed ones, to its sketches folded; its closed buckets' bytes are within
// its items tables' and, over their pairs, the bytes a pair it prints; the
// footprint line's held bytes are the
// summary line's items tables and dense arrays, the figures it prints are the
// summary's Footprint(),
// and the bytes a bucket it prints are those headers over the buckets
// Occupancy() stores.
func TestOccupancyTableAddsUp(t *testing.T) {
	const n = 20_000
	var out bytes.Buffer
	occupancyTable(&out, n)

	type shape struct {
		counters, bytes       int64   // the printed rows, added up
		folded                int     // and their folded buckets
		virgin                int     // levels left out
		space, held           int64   // the summary line
		sketchesFolded        int     // and the sketches it says folded
		tables, arrays        int64   // and its sketch storage
		fpHeld, fpPooled, hdr int64   // the footprint line
		perBucket             float64 // the footprint line's header bytes a bucket
		buckets               int     // and the buckets they are over
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
		var name string
		var a, b, c int64
		var k int
		switch {
		case strings.HasPrefix(line, "shape\t"), strings.HasPrefix(line, "# Occupancy"), strings.HasPrefix(line, "# shared:"):
		case strings.Contains(line, " further levels are virgin"):
			if _, err := fmt.Sscanf(line, "# %s %d further", &name, &k); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			get(name).virgin += k
		case strings.Contains(line, ": space "):
			var tables, closed, pairs, arrays, packed, counters, pooled, img int64
			var perPair, perCounter float64
			if _, err := fmt.Sscanf(line, "# %s space %d counters in %d bytes (items tables %d, of which closed buckets' %d for %d pairs, %g bytes a pair, dense arrays %d, closed buckets' dense arrays, packed where that shrinks them, %d bytes for %d counters, %g bytes a counter, pooled beside them %d), %d sketches folded, image %d bytes",
				&name, &a, &b, &tables, &closed, &pairs, &perPair, &arrays, &packed, &counters, &perCounter, &pooled, &k, &img); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			if closed > tables || pairs == 0 || math.Abs(perPair-float64(closed)/float64(pairs)) > 0.005 {
				t.Fatalf("%q: closed buckets' %d bytes of %d in items tables, %d pairs, said to be %g bytes a pair", line, closed, tables, pairs, perPair)
			}
			if packed > arrays || counters == 0 || math.Abs(perCounter-float64(packed)/float64(counters)) > 0.005 {
				t.Fatalf("%q: closed buckets' %d bytes of %d in dense arrays, %d counters, said to be %g bytes a counter", line, packed, arrays, counters, perCounter)
			}
			sh := get(name)
			sh.space, sh.held, sh.tables, sh.arrays, sh.sketchesFolded = a, b, tables, arrays, k
			sh.lines++
		case strings.Contains(line, ": footprint "):
			if _, err := fmt.Sscanf(line, "# %s footprint held %d, pooled %d, headers %d bytes", &name, &a, &b, &c); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			sh := get(name)
			sh.fpHeld, sh.fpPooled, sh.hdr = a, b, c
			tail := line[strings.Index(line, "of held, ")+len("of held, "):]
			if _, err := fmt.Sscanf(tail, "%g bytes a bucket over %d buckets)", &sh.perBucket, &sh.buckets); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			sh.lines++
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unexpected comment line %q", line)
		default:
			f := strings.Split(line, "\t")
			if len(f) != 14 {
				t.Fatalf("row %q has %d fields, want 14", line, len(f))
			}
			stored, err1 := strconv.Atoi(f[3])
			shared, err2 := strconv.Atoi(f[4])
			closed, err3 := strconv.Atoi(f[5])
			folded, err4 := strconv.Atoi(f[6])
			counters, err5 := strconv.ParseInt(f[10], 10, 64)
			held, err6 := strconv.ParseInt(f[11], 10, 64)
			if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil || shared > stored || folded > closed {
				t.Fatalf("row %q: %v, or more buckets shared than stored, or folded than closed", line, err)
			}
			sh := get(f[0])
			sh.counters += counters
			sh.bytes += held
			sh.folded += folded
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
		if sh.folded != sh.sketchesFolded {
			t.Errorf("%s: rows fold %d buckets, the summary line says %d sketches", preset.name, sh.folded, sh.sketchesFolded)
		}
		if got := sh.bytes + 16*int64(sh.virgin); got != sh.held || sh.fpHeld != sh.tables+sh.arrays {
			t.Errorf("%s: rows add up to %d bytes, the summary line says %d, of them %d in tables and arrays, and the footprint holds %d",
				preset.name, got, sh.held, sh.tables+sh.arrays, sh.fpHeld)
		}
		s := occupancySummary(preset, correlated.Both)
		f := s.Footprint()
		if sh.hdr != f.Headers || sh.fpHeld != f.Held || sh.fpPooled != f.Pooled {
			t.Errorf("%s: printed footprint held %d, pooled %d, headers %d; Footprint() is %+v", preset.name, sh.fpHeld, sh.fpPooled, sh.hdr, f)
		}
		stored := 0
		for _, o := range s.Occupancy() {
			stored += o.Stored
		}
		if want := fmt.Sprintf("%.1f", float64(f.Headers)/float64(stored)); sh.buckets != stored || fmt.Sprintf("%.1f", sh.perBucket) != want {
			t.Errorf("%s: printed %.1f header bytes a bucket over %d buckets; Footprint and Occupancy give %s over %d",
				preset.name, sh.perBucket, sh.buckets, want, stored)
		}
		if f.Headers == 0 {
			t.Errorf("%s: no header bytes; the test lost its point", preset.name)
		}
	}
}

// TestArenaBytesByShape pins what an F2 summary configured as corrd is maps
// for its counters — Footprint().Arena — on three of corrdbench's stream
// shapes, so a change to the arena or to the tables' sizes that maps more
// fails here before it shows in a benchmark. Space and the image are pinned
// beside it: no table layout or block placement may move them. With
// power-of-two tables and a free list a size class the arena mapped
// 6 471 680, 5 881 856 and 10 600 448 bytes; with a tree a direction,
// 5 554 176, 5 619 712 and 9 486 336; with closed buckets' tables cut to
// exactly their slots rather than packed into runs, 3 465 216, 3 530 752 and
// 5 627 904; with closed buckets' arrays plain rather than packed into four
// bits a counter, 2 809 856, 2 678 784 and 4 317 184.
func TestArenaBytesByShape(t *testing.T) {
	for _, c := range []struct {
		shape              occupancyShape
		arena, space, imgs int64
	}{
		{occupancyShape{"uniform/16", 150_000, 16, false}, 2_613_248, 1_932_838, 3_026_393},
		{occupancyShape{"uniform/32768", 150_000, 32768, false}, 2_351_104, 1_955_680, 3_054_881},
		{occupancyShape{"zipf/256", 150_000, 256, true}, 3_727_360, 2_726_496, 3_592_307},
	} {
		s := occupancySummary(c.shape, correlated.Both)
		img, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if f := s.Footprint(); f.Arena != c.arena || s.Space() != c.space || int64(len(img)) != c.imgs {
			t.Errorf("%s: arena %d bytes, space %d counters, image %d bytes; want %d, %d, %d",
				c.shape.name, f.Arena, s.Space(), len(img), c.arena, c.space, c.imgs)
		}
	}
}

// TestBothSpaceByShape pins what one tree a level for both directions saves
// against a summary for each: Space() and Footprint().Arena of a Both summary
// beside those of an LE and a GE summary fed the same stream, on the shapes
// TestArenaBytesByShape pins. The buckets both directions keep — every one of
// the levels neither has discarded from — are stored once: 24–30 % fewer
// counters, 33–38 % fewer arena bytes (29–35 % while closed buckets' arrays
// were plain). (It was 40–43 % and 37–41 % before a
// summary serving one direction folded each closed bucket into the one above
// it that its queries always take with it: at this length, the levels such
// a summary holds dense are ones a Both summary keeps for both directions,
// which fold nothing.)
func TestBothSpaceByShape(t *testing.T) {
	for _, c := range []struct {
		shape                occupancyShape
		both, le, ge         int64 // Space()
		bothArena, sideArena int64 // Footprint().Arena: Both, and LE's + GE's
	}{
		{occupancyShape{"uniform/16", 150_000, 16, false}, 1_932_838, 1_285_745, 1_273_613, 2_613_248, 4_177_920},
		{occupancyShape{"uniform/32768", 150_000, 32768, false}, 1_955_680, 1_316_661, 1_327_023, 2_351_104, 3_522_560},
		{occupancyShape{"zipf/256", 150_000, 256, true}, 2_726_496, 1_930_731, 1_919_455, 3_727_360, 5_750_784},
	} {
		both := occupancySummary(c.shape, correlated.Both)
		le := occupancySummary(c.shape, correlated.LE)
		ge := occupancySummary(c.shape, correlated.GE)
		sideArena := le.Footprint().Arena + ge.Footprint().Arena
		if both.Space() != c.both || le.Space() != c.le || ge.Space() != c.ge ||
			both.Footprint().Arena != c.bothArena || sideArena != c.sideArena {
			t.Errorf("%s: space %d counters, LE %d and GE %d; arena %d bytes, LE's and GE's %d; want %d, %d, %d; %d, %d",
				c.shape.name, both.Space(), le.Space(), ge.Space(), both.Footprint().Arena, sideArena,
				c.both, c.le, c.ge, c.bothArena, c.sideArena)
		}
		t.Logf("%s: Both holds %.1f %% fewer counters and maps %.1f %% fewer arena bytes than LE and GE apart",
			c.shape.name, 100*(1-float64(both.Space())/float64(le.Space()+ge.Space())),
			100*(1-float64(both.Footprint().Arena)/float64(sideArena)))
	}
}
