package correlated_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/gen"
)

// Constants generated by running this test at commit 000f2ac (PR 13), the
// last commit whose CountSketch was dense-only. They pin the summary wire
// image and the query float bits against the old code, so a change to the
// sketch's in-memory form is checked against its predecessor and not only
// against itself. Regenerate them only with a deliberate wire-version bump.
const (
	goldenImageSHA256 = "84e6670aa1bbef40e1801c1a34cdee5b955d0e4bb4254124fce3b93679962bf7"
	goldenImageLen    = 27183358
)

var goldenQueryBits = [4]uint64{
	0x4092940000000000, // QueryLE(2 000): singleton level
	0x418729ba20000000, // QueryLE(600 000)
	0x408d180000000000, // QueryGE(998 000): singleton level
	0x41864f0aa0000000, // QueryGE(400 000)
}

// goldenBatches feeds n zipf tuples through AddBatch in 256-tuple batches,
// the shape corrdbench's tenants-restart workload sends.
func goldenBatches(t *testing.T, s *correlated.F2Summary, n int, seed uint64) {
	t.Helper()
	st := gen.Zipf(n, 100001, 1000001, 1.0, seed)
	batch := make([]correlated.Tuple, 0, 256)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := s.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for {
		tp, ok := st.Next()
		if !ok {
			break
		}
		batch = append(batch, correlated.Tuple{X: tp.X, Y: tp.Y, W: 1})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
}

// TestF2SummaryWireGolden builds a summary with corrd's benchmark options,
// folds a second one in over the wire and live, and compares the marshaled
// image and four query answers with the parent commit's.
func TestF2SummaryWireGolden(t *testing.T) {
	o := correlated.Options{
		Eps: 0.15, Delta: 0.1, YMax: 1_000_000,
		MaxStreamLen: 1 << 24, MaxX: 500_001, Seed: 42,
		Predicate: correlated.Both,
	}
	newSummary := func() *correlated.F2Summary {
		s, err := correlated.NewF2Summary(o)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := newSummary(), newSummary()
	goldenBatches(t, a, 60_000, 7)
	goldenBatches(t, b, 25_000, 8)
	img, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergeMarshaled(img); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}

	out, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != goldenImageSHA256 || len(out) != goldenImageLen {
		t.Errorf("image: sha256 %s len %d, want %s len %d", got, len(out), goldenImageSHA256, goldenImageLen)
	}

	// One cutoff per direction inside the singleton level, one past it.
	var got [4]uint64
	for i, q := range []struct {
		ge bool
		c  uint64
	}{{false, 2_000}, {false, 600_000}, {true, 998_000}, {true, 400_000}} {
		query := a.QueryLE
		if q.ge {
			query = a.QueryGE
		}
		v, err := query(q.c)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got[i] = math.Float64bits(v)
	}
	if got != goldenQueryBits {
		t.Errorf("query bits %#x, want %#x", got, goldenQueryBits)
	}
}
