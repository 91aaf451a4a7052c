package service

import (
	"context"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
)

// countingEngine counts the queries that reach the live summary.
type countingEngine struct {
	Engine
	evaluated int
}

func (c *countingEngine) QueryLE(x uint64) (float64, error) {
	c.evaluated++
	return c.Engine.QueryLE(x)
}

func (c *countingEngine) QueryGE(x uint64) (float64, error) {
	c.evaluated++
	return c.Engine.QueryGE(x)
}

// countQueries wraps the default tenant's engine so a test can see how
// many cutoffs each request evaluated.
func countQueries(svc *Server) *countingEngine {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	ce := &countingEngine{Engine: svc.def.eng}
	svc.def.eng = ce
	return ce
}

// TestQueryMemo walks the answer memo's contract on one server with
// QueryMaxStale = 0: a repeated query is a hit that evaluates nothing, a
// request that adds cutoffs evaluates only those, the two directions do
// not share entries, and an acknowledged write invalidates what was
// memoized (read-your-writes).
func TestQueryMemo(t *testing.T) {
	o := testOptions()
	svc, _, cl := newTestServer(t, Config{Options: o})
	ctx := context.Background()
	s1 := testStream(2_000, 91)
	if err := cl.AddBatch(ctx, s1); err != nil {
		t.Fatal(err)
	}
	offline, err := correlated.NewF2Summary(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := offline.AddBatch(append([]correlated.Tuple(nil), s1...)); err != nil {
		t.Fatal(err)
	}
	ce := countQueries(svc)
	steps := []struct {
		name      string
		op        string
		cutoffs   []uint64
		evaluated int // cutoffs that must reach the live summary
	}{
		{"cold", "le", []uint64{10, 50}, 2},
		{"repeat is a hit", "le", []uint64{10, 50}, 0},
		{"partial hit", "le", []uint64{10, 50, 150}, 1},
		{"other direction shares nothing", "ge", []uint64{10, 50}, 2},
		{"subset, reordered", "le", []uint64{150, 10}, 0},
	}
	var hits, rebuilds uint64
	for _, st := range steps {
		before := ce.evaluated
		got, err := cl.QueryBatch(ctx, st.op, st.cutoffs)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if n := ce.evaluated - before; n != st.evaluated {
			t.Fatalf("%s: evaluated %d cutoffs on the live summary, want %d", st.name, n, st.evaluated)
		}
		for i, c := range st.cutoffs {
			want, err := offline.QueryLE(c)
			if st.op == "ge" {
				want, err = offline.QueryGE(c)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got[i].C != c || got[i].Estimate != want {
				t.Fatalf("%s: %s(%d) = %+v, offline %v", st.name, st.op, c, got[i], want)
			}
		}
		if st.evaluated == 0 {
			hits++
		} else {
			rebuilds++
		}
		if h, r := svc.metrics.queryCacheHits.Load(), svc.metrics.queryCacheRebuilds.Load(); h != hits || r != rebuilds {
			t.Fatalf("%s: hits %d rebuilds %d, want %d and %d", st.name, h, r, hits, rebuilds)
		}
	}

	// Read-your-writes: the ack below came after the epoch bump, so the
	// memoized answer is no longer served.
	s2 := testStream(1_000, 92)
	if err := cl.AddBatch(ctx, s2); err != nil {
		t.Fatal(err)
	}
	if err := offline.AddBatch(append([]correlated.Tuple(nil), s2...)); err != nil {
		t.Fatal(err)
	}
	before := ce.evaluated
	got, err := cl.QueryLE(ctx, 150)
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline.QueryLE(150)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || ce.evaluated != before+1 {
		t.Fatalf("after an acknowledged write: got %v (evaluated %d), want %v evaluated once", got, ce.evaluated-before, want)
	}
}

// TestQueryMemoBounded: the memo never holds more than memoCap entries
// however many distinct cutoffs clients ask for, and a spill drops it
// with the engine.
func TestQueryMemoBounded(t *testing.T) {
	svc, ts, _ := newTestServer(t, Config{Options: testOptions(), QueryMaxStale: time.Hour})
	ctx := context.Background()
	cl := client.New(ts.URL, client.WithTenant("scanned"))
	if err := cl.AddBatch(ctx, testStream(500, 93)); err != nil {
		t.Fatal(err)
	}
	tn := svc.tenantByName("scanned")
	memoLen := func() int {
		tn.memoMu.Lock()
		defer tn.memoMu.Unlock()
		return len(tn.memo)
	}
	cutoffs := make([]uint64, maxCutoffsPerQuery)
	for req := 0; req*len(cutoffs) <= memoCap+len(cutoffs); req++ {
		for i := range cutoffs {
			cutoffs[i] = uint64(req*len(cutoffs) + i)
		}
		if _, err := cl.QueryBatch(ctx, "le", cutoffs); err != nil {
			t.Fatal(err)
		}
		if n := memoLen(); n == 0 || n > memoCap {
			t.Fatalf("after %d distinct cutoffs the memo holds %d entries (cap %d)", (req+1)*len(cutoffs), n, memoCap)
		}
	}
	if n := svc.spillIdle(0); n != 1 {
		t.Fatalf("spilled %d tenants, want 1", n)
	}
	if n := memoLen(); n != 0 {
		t.Fatalf("memo holds %d entries after the spill", n)
	}
	// The spilled tenant still answers, by restoring.
	if _, err := cl.QueryLE(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if got := tn.restores.Load(); got != 1 {
		t.Fatalf("restores = %d after a query on the spilled tenant", got)
	}
}
