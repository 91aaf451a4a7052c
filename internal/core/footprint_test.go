package core

import (
	"testing"
	"unsafe"

	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/internal/sketch"
)

// The struct sizes Footprint's Headers are made of: a tree node is a 16-byte
// slab record (TestBucketNodeSize) and a CountSketch a 32-byte one, whatever
// its form — a dense sketch's row sums and counters are one arena block
// behind the struct's one pointer, off the collected heap
// (sketch.TestCountSketchStructSize pins the size). A singleton has no node:
// its sketch's handle sits in a slot of the singleton level's table, twelve
// bytes with its y, and its distance from each direction's end that keeps it
// in that direction's heap. A level is a 144-byte record: 64 of state, the
// pointer to them, 56 of cached leaf and two watermarks.
const (
	wantBucketBytes = 16
	wantSketchBytes = 32
	wantSlotBytes   = 12
	wantLevelBytes  = 144
)

// TestBucketNodeSize: a summary holds tens of thousands of tree nodes, so a
// node keeps only its sketch's handle, its two children's, and one word
// holding its close budget, which says whether it is closed, and the
// directions that keep it — its interval is its position — in a 16-byte
// record of the node slab.
func TestBucketNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(bucket{}); size != wantBucketBytes || bucketBytes != wantBucketBytes {
		t.Fatalf("a tree node is %d bytes (%d as charged), want %d", size, bucketBytes, wantBucketBytes)
	}
}

// walkSlabs calls node for every tree node s reaches from its levels' roots
// and sk for every sketch it reaches in its maker's slab: the shared one, the
// singletons' and the nodes'.
func walkSlabs(s *Summary, node func(*bucket), sk func(sketch.Sketch)) {
	var walk func(h uint32)
	walk = func(h uint32) {
		if h == 0 {
			return
		}
		b := s.nodes.At(h)
		node(b)
		if b.sk != 0 {
			sk(s.sketch(b.sk))
		}
		walk(b.left)
		walk(b.right)
	}
	for i := 1; i <= s.lmax; i++ {
		walk(s.levels[i].root)
	}
	s.s0.buckets.each(func(_ uint64, h uint32) { sk(s.sketch(h)) })
	sk(s.sketch(s.shared))
}

// singletonBytes is what the singleton level keeps on the heap: its table's
// slots and its heaps, at their capacities.
func singletonBytes(s *Summary) int64 {
	z := &s.s0
	return int64(wantSlotBytes*len(z.buckets.hs) + 8*(cap(z.ys[0])+cap(z.ys[1])))
}

// widened counts the dense sketches of s past one byte a counter.
func widened(s *Summary) int {
	m, ok := s.maker.(*sketch.F2Maker)
	if !ok {
		return 0
	}
	n, narrow := 0, m.Width()*m.Depth()+8*m.Depth()
	walkSlabs(s, func(*bucket) {}, func(sk sketch.Sketch) {
		if f, ok := sk.(formed); ok && f.Dense() && f.Bytes() > narrow {
			n++
		}
	})
	return n
}

// checkFootprint compares s.Footprint — running counts — with what a walk of s
// finds: Held is Occupancy's ItemsBytes and DenseBytes added up, and Arena
// Held and Pooled together; Headers is the structs of each sketch and tree
// node the walk meets, the singleton level's table and heaps, a record a
// level, the two slabs' spare slots and the arena's lists of free runs, which
// with Pooled make Occupancy's Pooled. And the node slab holds the nodes
// the walk meets and no more: a node freed anywhere but to the slab would be
// held there, out of every tree, and out of Pooled.
func checkFootprint(t *testing.T, when string, s *Summary) books {
	t.Helper()
	var held, pooled int64
	sketches, dense, nodes := 1, 0, 0 // the shared sketch is on no row's Items or Dense
	if f, ok := s.sketch(s.shared).(formed); ok && f.Dense() {
		dense++
	}
	for i, o := range s.Occupancy() {
		held += o.ItemsBytes + o.DenseBytes
		pooled += o.Pooled
		sketches += o.Items + o.Dense
		dense += o.Dense
		if i > 0 { // the singletons of row 0 have no node
			nodes += o.Stored
		}
	}
	if live := s.nodes.Live(); live != nodes {
		t.Fatalf("%s: the node slab holds %d nodes, the levels' trees %d", when, live, nodes)
	}
	got := s.Footprint()
	_, heap := s.maker.(pooler).PooledBytes()
	spare := int64(heap) + s.spareNodeBytes()
	want := Footprint{
		Held:    held,
		Pooled:  pooled - spare,
		Headers: int64(sketches*wantSketchBytes+nodes*wantBucketBytes) + spare + singletonBytes(s) + int64(s.lmax+1)*wantLevelBytes,
		Arena:   held + pooled - spare,
	}
	if got != want {
		t.Fatalf("%s: Footprint %+v, the walk finds %+v (%d sketches, %d dense, %d nodes)",
			when, got, want, sketches, dense, nodes)
	}
	lists := int64(s.maker.(interface{ ListBytes() int }).ListBytes())
	return books{got, want.Headers - spare, lists}
}

// books is a Footprint, the share of its Headers that the summary's buckets
// hold, its slabs' spare slots and its arena's lists left out, and the
// arena's lists: the heap bytes behind its free runs' lists, which keep the
// longest each has been.
type books struct {
	Footprint
	structs, lists int64
}

// sameBooks reports whether two books agree but for the arena's lists: the
// slabs' spare slots among the Headers included.
func sameBooks(a, b books) bool {
	a.Headers -= a.lists
	b.Headers -= b.lists
	a.lists, b.lists = 0, 0
	return a == b
}

// TestFootprintIsTheWalk: the running counts behind Footprint equal a walk of
// the summary after every kind of change a summary's life holds — ingest of
// corrdbench's two stream shapes, queries, a merge of a live summary, an image
// folded in, an image installed over a used summary and into a fresh one, and
// images that fail to parse part-way in, which must leave nothing on the
// books. From the merge on, tree nodes its evictions freed wait in the
// summary's node slab, charged to Pooled.
func TestFootprintIsTheWalk(t *testing.T) {
	n := 400_000
	if testing.Short() || raceEnabled {
		n = 60_000
	}
	cfg := Config{Eps: 0.15, Delta: 0.1, YMax: 999_999, MaxStreamLen: 1 << 24, MaxX: 500_001, Seed: 42}
	s := mustSummary(t, F2Aggregate(), cfg)
	empty := checkFootprint(t, "empty", s)
	feed := func(s *Summary, st gen.Stream) { t.Helper(); feedStream(t, s, st) }
	feed(s, gen.Uniform(n, 500_000, 1_000_000, 1))
	checkFootprint(t, "after the uniform stream", s)
	feed(s, gen.Zipf(n, 500_000, 1_000_000, 1.1, 2))
	f := checkFootprint(t, "after the zipf stream", s)
	if f.Held == 0 || f.Pooled == 0 || f.Headers == 0 || widened(s) == 0 {
		t.Fatalf("the streams should leave bytes of every kind, and widened arrays: %+v, %d widened", f, widened(s))
	}
	for c := uint64(0); c < 1_000_000; c += 99_991 {
		if _, err := s.Query(c); err != nil {
			t.Fatal(err)
		}
	}
	if g := checkFootprint(t, "after queries", s); g != f {
		t.Fatalf("queries moved the footprint from %+v to %+v", f, g)
	}

	other := mustSummary(t, F2Aggregate(), cfg)
	feed(other, gen.Zipf(n/4, 500_000, 1_000_000, 1.1, 3))
	// The merged tree of a level holds the union of the two sides' buckets,
	// so what it holds beyond the level's count after the merge was evicted.
	evicted := 0
	for i := 1; i <= s.lmax; i++ {
		evicted += union(s, s.levels[i].root, other, other.levels[i].root)
	}
	if err := s.Merge(other); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= s.lmax; i++ {
		evicted -= s.levels[i].nodes
	}
	checkFootprint(t, "after Merge", s)
	t.Logf("the merge evicted %d buckets", evicted)
	if evicted < 200 {
		t.Fatalf("the merge evicted at least %d buckets; the checks below should run with hundreds of freed nodes in the slab", evicted)
	}
	checkFootprint(t, "the merged-in summary", other)

	img, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	f = checkFootprint(t, "before the failed parses", s)
	for cut := 1; cut < len(img); cut += len(img)/97 + 1 {
		if err := s.MergeMarshaled(img[:cut]); err == nil {
			t.Fatalf("an image cut at %d of %d bytes merged", cut, len(img))
		}
		// What a failed parse decoded goes back to the arena.
		if g := checkFootprint(t, "after a failed parse", s); g.Held != f.Held || g.structs != f.structs {
			t.Fatalf("an image cut at %d of %d bytes moved the footprint from %+v to %+v", cut, len(img), f, g)
		}
	}
	if err := s.MergeMarshaled(img); err != nil {
		t.Fatal(err)
	}
	checkFootprint(t, "after MergeMarshaled", s)

	if img, err = s.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	fresh := mustSummary(t, F2Aggregate(), cfg)
	if err := fresh.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	f = checkFootprint(t, "restored into a fresh summary", fresh)
	if err := other.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if g := checkFootprint(t, "restored over a used summary", other); g.Held != f.Held || g.structs != f.structs {
		t.Fatalf("one image restores to %+v in a fresh summary and %+v over a used one", f, g)
	}
	other.Reset()
	if g := checkFootprint(t, "after Reset", other); g.Held != empty.Held || g.structs != empty.structs {
		t.Fatalf("a reset summary holds %+v, an empty one %+v", g, empty)
	}

	// A maker that keeps no books: every counter is charged a word.
	count := mustSummary(t, CountAggregate(), cfg)
	feed(count, gen.Uniform(n/8, 500_000, 1_000_000, 4))
	if got, want := checkFootprintWords(t, count), (Footprint{Held: 8 * count.Space(), Pooled: count.spareNodeBytes()}); got != want {
		t.Fatalf("COUNT: Footprint %+v, want %+v", got, want)
	}
}

// feedStream adds st to s in batches of 4 096.
func feedStream(t *testing.T, s *Summary, st gen.Stream) {
	t.Helper()
	batch := make([]Tuple, 0, 4096)
	for {
		tu, ok := st.Next()
		if ok {
			batch = append(batch, Tuple{X: tu.X, Y: tu.Y, W: 1})
		}
		if len(batch) == cap(batch) || (!ok && len(batch) > 0) {
			if err := s.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
		if !ok {
			return
		}
	}
}

// TestSlabsDoNotLeak: what a summary gives back — on a Reset, on a restore
// over a used summary, on a merge's evictions — goes to its slabs and its
// arena, shows in Occupancy's Pooled, and is what its next nodes and sketches
// take: a summary fed a stream, Reset and fed the same stream again ends
// holding exactly what it held after the first pass, spare slots, free blocks
// and the arena's mapped bytes included, and after a second Reset and refeed
// the arena's lists of free runs too. A site that is Reset every round of a
// merge-rounds deployment does this.
func TestSlabsDoNotLeak(t *testing.T) {
	n := 200_000
	if testing.Short() || raceEnabled {
		n = 40_000
	}
	cfg := Config{Eps: 0.15, Delta: 0.1, YMax: 999_999, MaxStreamLen: 1 << 24, MaxX: 500_001, Seed: 42}
	stream := func() gen.Stream { return gen.Zipf(n, 500_000, 1_000_000, 1.1, 9) }
	// held counts the nodes and sketches s holds in its slabs.
	held := func(s *Summary) (nodes, sketches int) {
		walkSlabs(s, func(*bucket) { nodes++ }, func(sketch.Sketch) { sketches++ })
		return nodes, sketches
	}
	s := mustSummary(t, F2Aggregate(), cfg)
	feedStream(t, s, stream())
	first := checkFootprint(t, "after the first pass", s)
	firstSpare := s.Occupancy()[0].Pooled
	nodes, sketches := held(s)

	s.Reset()
	reset := checkFootprint(t, "after Reset", s)
	n0, s0 := held(s)
	// Every slot the pass held and Reset gave back is spare now, and every
	// block free in the arena, which maps what it mapped. The arena's lists
	// are neither.
	resetSpare := s.Occupancy()[0].Pooled - reset.lists
	firstSpare -= first.lists
	if freed := int64(nodes-n0)*wantBucketBytes + int64(sketches-s0)*wantSketchBytes + first.Held - reset.Held; resetSpare-firstSpare < freed {
		t.Fatalf("Reset gave back %d nodes and %d sketches, %d bytes of slots and blocks, but the spare bytes went from %d to %d",
			nodes-n0, sketches-s0, freed, firstSpare, resetSpare)
	}
	if reset.Arena != first.Arena {
		t.Fatalf("Reset moved the arena from %d to %d bytes", first.Arena, reset.Arena)
	}

	feedStream(t, s, stream())
	second := checkFootprint(t, "after the second pass", s)
	if !sameBooks(second, first) {
		t.Fatalf("the same stream after a Reset ends at %+v, the first pass at %+v", second, first)
	}
	// The arena's lists are as long as the most runs a class has had free at
	// once, which the first Reset's puts raise; a second leaves them there.
	s.Reset()
	feedStream(t, s, stream())
	if third := checkFootprint(t, "after the third pass", s); third != second {
		t.Fatalf("the same stream after a second Reset ends at %+v, after the first at %+v", third, second)
	}

	// A restore over the used summary gives its state back too. The image
	// is decoded beside the state it replaces, so the first restore takes
	// new slots and blocks for it. The second takes the slots the first gave
	// back, and lays its blocks out in the free runs the first left, which
	// the first's blocks break up, so it may map a little more; every later
	// one takes the slots and blocks the one before the last gave back.
	img, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	spares := func(b books) int64 { return b.Headers - b.structs - b.lists }
	var once, twice books
	for i, when := range []string{"restored over itself", "restored over itself again", "and again", "and once more"} {
		if err := s.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		got := checkFootprint(t, when, s)
		if got.Held != second.Held || got.structs != second.structs {
			t.Fatalf("%s: %+v; fed, %+v", when, got, second)
		}
		switch i {
		case 0:
			once = got
		case 1:
			if spares(got) != spares(once) || got.Arena > once.Arena*51/50 {
				t.Fatalf("%s: %+v; restored once, %+v", when, got, once)
			}
			twice = got
		default:
			if !sameBooks(got, twice) {
				t.Fatalf("%s: %+v; restored twice, %+v", when, got, twice)
			}
		}
	}
}

// union counts the nodes of two trees with their paths from the roots
// merged: the node at ah in a's slab and the one at bh in b's.
func union(a *Summary, ah uint32, b *Summary, bh uint32) int {
	switch {
	case ah == 0 && bh == 0:
		return 0
	case ah == 0:
		return union(b, bh, a, 0)
	case bh == 0:
		x := a.nodes.At(ah)
		return 1 + union(a, x.left, b, 0) + union(a, x.right, b, 0)
	}
	x, y := a.nodes.At(ah), b.nodes.At(bh)
	return 1 + union(a, x.left, b, y.left) + union(a, x.right, b, y.right)
}

// checkFootprintWords is checkFootprint for a summary whose maker keeps no
// books: Held is Occupancy's Bytes, and Pooled the free tree nodes alone.
func checkFootprintWords(t *testing.T, s *Summary) Footprint {
	t.Helper()
	var held int64
	for _, o := range s.Occupancy() {
		held += o.Bytes
	}
	got := s.Footprint()
	if got.Held != held {
		t.Fatalf("Footprint holds %d, Occupancy's rows %d", got.Held, held)
	}
	return got
}
