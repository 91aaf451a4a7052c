package service

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestHistogramConcurrentObserve: the per-bucket fixed-point sums are
// exact under contention — no lost updates, no float rounding drift —
// which is the property the old CAS-retry float sum bought with a spin
// loop. Run under -race this is also the histogram's contention test.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(defaultBuckets())
	// Each value is exact in 1e-9 fixed point, so the expected sum is
	// exact too.
	vals := []float64{0.00025, 0.001, 0.004, 0.05, 3}
	const goroutines, perG = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(vals[i%len(vals)])
			}
		}()
	}
	wg.Wait()

	wantCount := uint64(goroutines * perG)
	if got := h.count.Load(); got != wantCount {
		t.Fatalf("count = %d, want %d", got, wantCount)
	}
	var bucketTotal uint64
	for i := range h.counts {
		bucketTotal += h.counts[i].Load()
	}
	if bucketTotal != wantCount {
		t.Fatalf("bucket counts total %d, want %d", bucketTotal, wantCount)
	}
	var perVal float64
	for _, v := range vals {
		perVal += v
	}
	want := perVal * float64(goroutines) * float64(perG/len(vals))
	if got := h.sum(); got < want*(1-1e-9) || got > want*(1+1e-9) {
		t.Fatalf("sum = %v, want %v exactly (fixed-point adds lose nothing)", got, want)
	}
	if q := h.quantile(0.5); q <= 0 {
		t.Fatalf("median = %v, want > 0", q)
	}
	// Mass beyond the last bound (the value 3 here) reports the last
	// bound rather than inventing an upper edge.
	bounds := defaultBuckets()
	if q := h.quantile(0.999); q != bounds[len(bounds)-1] {
		t.Fatalf("p99.9 = %v, want last bound %v", q, bounds[len(bounds)-1])
	}
}

var (
	bucketRe = regexp.MustCompile(`^([a-z0-9_]+)_bucket\{(.*?)le="([^"]+)"\} (\S+)$`)
	countRe  = regexp.MustCompile(`^([a-z0-9_]+)_count(\{[^}]*\})? (\S+)$`)
)

// scrape fetches a server's /metrics exposition.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of one exact series line (full match
// up to the space) from the exposition.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition", series)
	return 0
}

// TestMetricsExpositionInvariants scrapes a server that has done real
// work (concurrent ingest through the commit pipeline with a
// fsync=always WAL, queries, a snapshot) and checks the exposition is
// well-formed Prometheus text: every histogram's buckets are cumulative
// and non-decreasing with +Inf equal to _count, every corrd_* series
// the README documents is present, and the pipeline-stage histograms
// actually fired for all five stages.
func TestMetricsExpositionInvariants(t *testing.T) {
	dir := t.TempDir()
	svc, ts, cl := newTestServer(t, Config{
		Options:      testOptions(),
		SnapshotPath: filepath.Join(dir, "snap"),
		WALDir:       filepath.Join(dir, "wal"),
		WALFsync:     "always",
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := cl.AddBatch(ctx, testStream(2000, uint64(50+i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if _, err := cl.QueryBatch(ctx, "le", []uint64{5, 50}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Snapshot(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Histogram shape: within each bucket family (name + non-le labels)
	// the rendered values are cumulative, so in file order they must be
	// non-decreasing and the +Inf bucket must equal the _count series.
	counts := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if m := countRe.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("bad count line %q", line)
			}
			counts[m[1]+"_count"+m[2]] = v
		}
	}
	last := map[string]float64{}
	families := 0
	for _, line := range strings.Split(body, "\n") {
		m := bucketRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, prefix, le, valStr := m[1], m[2], m[3], m[4]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		fam := name + "{" + prefix + "}"
		if prev, ok := last[fam]; ok && v < prev {
			t.Fatalf("%s: bucket le=%q value %v < previous %v (not cumulative)", fam, le, v, prev)
		}
		last[fam] = v
		if le == "+Inf" {
			families++
			countKey := name + "_count"
			if p := strings.TrimSuffix(prefix, ","); p != "" {
				countKey += "{" + p + "}"
			}
			cv, ok := counts[countKey]
			if !ok {
				t.Fatalf("%s: no matching %s series", fam, countKey)
			}
			if v != cv {
				t.Fatalf("%s: +Inf bucket %v != count %v", fam, v, cv)
			}
			delete(last, fam)
		}
	}
	if families < 10 {
		t.Fatalf("only %d histogram families rendered, expected all handler/stage/wal histograms", families)
	}

	// Every metric name the README documents must exist in the scrape.
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile("`(corrd_[a-z0-9_]+)`")
	documented := map[string]bool{}
	for _, m := range nameRe.FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = true
	}
	if len(documented) < 20 {
		t.Fatalf("README documents only %d corrd_* metrics; the catalog table is missing", len(documented))
	}
	for name := range documented {
		if !strings.Contains(body, name) {
			t.Errorf("README documents %s but the exposition does not serve it", name)
		}
	}

	// The pipeline stages all fired: concurrent ingest over a
	// fsync=always WAL exercises enqueue, apply, append, fsync, and ack.
	for _, stage := range stageNames {
		series := `corrd_pipeline_stage_seconds_count{stage="` + stage + `"}`
		if v := metricValue(t, body, series); v <= 0 {
			t.Errorf("%s = %v, want > 0", series, v)
		}
	}
	// Every ack-path fsync is one stage observation and one WAL
	// histogram observation; the WAL histogram may add checkpoint
	// fsyncs, so stage count is bounded by it.
	fsyncStage := metricValue(t, body, `corrd_pipeline_stage_seconds_count{stage="fsync"}`)
	walFsyncs := metricValue(t, body, "corrd_wal_fsync_duration_seconds_count")
	if fsyncStage > walFsyncs {
		t.Errorf("fsync stage count %v > wal fsync histogram count %v", fsyncStage, walFsyncs)
	}
	if !strings.Contains(body, "corrd_build_info{") {
		t.Error("corrd_build_info missing from exposition")
	}
	if v := metricValue(t, body, "corrd_ingest_queue_depth"); v != 0 {
		t.Errorf("queue depth %v after quiescence, want 0", v)
	}

	// The replication series are part of the stable exposition even on a
	// server with no followers and no primary (all zero here), so
	// dashboards and alerts can rely on their presence before the first
	// replica ever attaches.
	for _, series := range []string{
		"corrd_replica_conns",
		"corrd_replica_records_sent_total",
		"corrd_replica_snapshots_sent_total",
		"corrd_replica_heartbeats_sent_total",
		"corrd_replica_records_applied_total",
		"corrd_replica_snapshots_installed_total",
		"corrd_replica_promotions_total",
		"corrd_replica_applied_lsn",
		"corrd_replica_primary_lsn",
		"corrd_replica_lag_records",
		"corrd_replica_lag_seconds",
	} {
		if v := metricValue(t, body, series); v != 0 {
			t.Errorf("%s = %v on a standalone server, want 0", series, v)
		}
	}
}
