package correlated_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/gen"
)

// golden pins the summary wire image and the query float bits in
// testdata/f2_wire_golden.json against the code that last wrote that file,
// so a change to the sketch's in-memory form or its image is checked against
// its predecessor and not only against itself. Regenerate it only with a
// deliberate wire-version bump:
//
//	go test -run TestF2SummaryWireGolden -update .
type golden struct {
	ImageSHA256 string    `json:"image_sha256"`
	ImageLen    int       `json:"image_len"`
	QueryBits   [4]string `json:"query_bits"` // QueryLE(2 000), QueryLE(600 000), QueryGE(998 000), QueryGE(400 000)
}

const goldenPath = "testdata/f2_wire_golden.json"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this build")

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
// image and four query answers with the recorded ones.
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
	got := golden{ImageSHA256: hex.EncodeToString(sum[:]), ImageLen: len(out)}

	// One cutoff per direction inside the singleton level, one past it.
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
		got.QueryBits[i] = fmt.Sprintf("%#016x", math.Float64bits(v))
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %+v", goldenPath, got)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("wire golden:\n got %+v\nwant %+v", got, want)
	}
}
