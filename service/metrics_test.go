package service

import (
	"context"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/streamagg/correlated/client"
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
// work (concurrent ingest through the commit pipeline and its log,
// queries, a snapshot) and checks the exposition is
// well-formed Prometheus text: every histogram's buckets are cumulative
// and non-decreasing with +Inf equal to _count, every corrd_* series
// the README documents is present, and the pipeline-stage histograms
// actually fired for all five stages.
func TestMetricsExpositionInvariants(t *testing.T) {
	svc, ts, cl := newTestServer(t, Config{Options: testOptions()})
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

	// Every metric name the README documents must exist in the scrape, and
	// every series the scrape serves has a row in the README's catalog.
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented, rows := map[string]bool{}, map[string]bool{}
	for _, m := range regexp.MustCompile("`(corrd_[a-z0-9_]+)`").FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = true
	}
	_, catalog, _ := strings.Cut(string(readme), "\n### Metrics catalog\n")
	for _, m := range regexp.MustCompile("(?m)^\\| `(corrd_[a-z0-9_]+)").FindAllStringSubmatch(catalog, -1) {
		rows[m[1]] = true
	}
	if len(rows) < 20 {
		t.Fatalf("README's Metrics catalog has only %d rows; the table is missing", len(rows))
	}
	for name := range documented {
		if !strings.Contains(body, name) {
			t.Errorf("README documents %s but the exposition does not serve it", name)
		}
	}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (corrd_[a-z0-9_]+) `).FindAllStringSubmatch(body, -1) {
		if !rows[m[1]] {
			t.Errorf("the exposition serves %s, which has no row in README's Metrics catalog", m[1])
		}
	}

	// The pipeline stages all fired: concurrent ingest over a
	// log exercises enqueue, apply, append, fsync, and ack.
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

	// The group histograms are /v1/stats' group counts: the four clients'
	// 2000 tuples went in 777-tuple chunks, three requests each, one
	// observation per group.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	groups := metricValue(t, body, "corrd_ingest_group_size_count")
	if st.IngestGroupReqs != 12 || metricValue(t, body, "corrd_ingest_group_size_sum") != 12 ||
		st.IngestGroups == 0 || st.IngestGroups > 12 || groups != float64(st.IngestGroups) {
		t.Errorf("ingest_groups %d, ingest_group_requests %d; corrd_ingest_group_size_count %v, _sum %v; want 12 requests",
			st.IngestGroups, st.IngestGroupReqs, groups, metricValue(t, body, "corrd_ingest_group_size_sum"))
	}
	if n, sum := metricValue(t, body, "corrd_ingest_group_tuples_count"), metricValue(t, body, "corrd_ingest_group_tuples_sum"); n != groups || sum != 8000 {
		t.Errorf("corrd_ingest_group_tuples_count %v, _sum %v; want %v groups and 8000 tuples", n, sum, groups)
	}

	if v := metricValue(t, body, "corrd_replica_promotions_total"); v != 0 {
		t.Errorf("corrd_replica_promotions_total = %v on a server that is no standby, want 0", v)
	}
}

// TestMetricsScrapeTakesNoDriverLock: a scrape renders from atomics and
// the registry's counts, so it answers while the driver lock is held —
// by a long commit, a snapshot's marshal, or a query's evaluation.
func TestMetricsScrapeTakesNoDriverLock(t *testing.T) {
	svc, ts, _ := newTestServer(t, walConfig(t))
	ctx := context.Background()
	if err := client.New(ts.URL, client.WithTenant("keyed")).AddBatch(ctx, testStream(500, 3)); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	got := make(chan string, 1)
	go func() { got <- scrape(t, ts.URL) }()
	select {
	case body := <-got:
		svc.mu.Unlock()
		if v := metricValue(t, body, "corrd_tenants"); v != 2 {
			t.Fatalf("corrd_tenants %v, want 2", v)
		}
	case <-time.After(2 * time.Second):
		svc.mu.Unlock()
		<-got
		t.Fatal("GET /metrics waited on the driver lock")
	}
}

// seriesReaders names, for every series /metrics renders, a reader: the
// test file (in service/, or ../cmd/corrd/) that asserts on it, or the
// smoke script. A series no one reads has no reason to be rendered.
var seriesReaders = map[string]string{
	"corrd_tuples_ingested_total":         "service_test.go",
	"corrd_ingest_errors_total":           "service_test.go",
	"corrd_stream_conns":                  "stream_test.go",
	"corrd_stream_conns_total":            "stream_test.go",
	"corrd_stream_frames_total":           "stream_test.go",
	"corrd_stream_tuples_total":           "../scripts/service-smoke.sh",
	"corrd_stream_frame_errors_total":     "stream_test.go",
	"corrd_forwards_total":                "../scripts/service-smoke.sh",
	"corrd_queries_served_total":          "service_test.go",
	"corrd_query_errors_total":            "service_test.go",
	"corrd_snapshots_written_total":       "service_test.go",
	"corrd_snapshot_errors_total":         "chaos_test.go",
	"corrd_snapshot_last_unix_seconds":    "service_test.go",
	"corrd_snapshot_bytes":                "service_test.go",
	"corrd_site_forwards_total":           "../scripts/service-smoke.sh",
	"corrd_uptime_seconds":                "service_test.go",
	"corrd_tenants":                       "admission_test.go",
	"corrd_tenants_live":                  "tenant_test.go",
	"corrd_tenant_bytes":                  "tenant_test.go",
	"corrd_tenant_created_total":          "admission_test.go",
	"corrd_tenant_spills_total":           "tenant_test.go",
	"corrd_tenant_restores_total":         "tenant_test.go",
	"corrd_tenant_rejected_total":         "../scripts/service-smoke.sh",
	"corrd_replica_promotions_total":      "../scripts/service-smoke.sh",
	"corrd_wal_segments":                  "service_test.go",
	"corrd_wal_appends_total":             "service_test.go",
	"corrd_wal_appended_bytes_total":      "service_test.go",
	"corrd_wal_checkpoints_total":         "replication_test.go",
	"corrd_wal_pruned_segments_total":     "replication_test.go",
	"corrd_wal_last_lsn":                  "service_test.go",
	"corrd_wal_append_errors_total":       "chaos_test.go",
	"corrd_wal_replay_records":            "../scripts/service-smoke.sh",
	"corrd_wal_replay_duration_seconds":   "service_test.go",
	"corrd_wal_fsync_duration_seconds":    "service_test.go",
	"corrd_http_request_duration_seconds": "service_test.go",
	"corrd_pipeline_stage_seconds":        "metrics_test.go",
	"corrd_ingest_group_size":             "metrics_test.go",
	"corrd_ingest_group_tuples":           "metrics_test.go",
	"corrd_ingest_queue_depth":            "metrics_test.go",
	"corrd_health_state":                  "chaos_test.go",
	"corrd_degraded_seconds_total":        "chaos_test.go",
	"corrd_ingest_shed_total":             "chaos_test.go",
	"corrd_degraded_rejects_total":        "chaos_test.go",
	"corrd_access_log_dropped_total":      "accesslog_test.go",
	"corrd_slow_requests_total":           "accesslog_test.go",
	"corrd_go_goroutines":                 "../scripts/service-smoke.sh",
	"corrd_go_gcs_total":                  "service_test.go",
	"corrd_go_gc_pause_total_seconds":     "service_test.go",
	"corrd_build_info":                    "metrics_test.go",
}

// TestEverySeriesHasAReader: seriesReaders lists exactly the series a
// server with a WAL renders — every corrd_* name in metrics.go — and each
// reader holds its series' name outside this table.
func TestEverySeriesHasAReader(t *testing.T) {
	_, ts, _ := newTestServer(t, walConfig(t))
	rendered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (corrd_[a-z0-9_]+) `).FindAllStringSubmatch(scrape(t, ts.URL), -1) {
		rendered[m[1]] = true
	}
	src, err := os.ReadFile("metrics.go")
	if err != nil {
		t.Fatal(err)
	}
	inSource := map[string]bool{}
	for _, name := range regexp.MustCompile(`corrd_[a-z0-9_]+`).FindAllString(string(src), -1) {
		inSource[name] = true
	}
	for what, names := range map[string]map[string]bool{"a WAL server's scrape": rendered, "metrics.go": inSource} {
		for name := range names {
			if seriesReaders[name] == "" {
				t.Errorf("%s has %s, which seriesReaders does not list", what, name)
			}
		}
		for name := range seriesReaders {
			if !names[name] {
				t.Errorf("seriesReaders lists %s, which %s does not have", name, what)
			}
		}
	}

	table := regexp.MustCompile(`(?m)^\s*"corrd_[a-z0-9_]+": +"[^"]+",$`)
	files := map[string]string{}
	for name, file := range seriesReaders {
		if _, ok := files[file]; !ok {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			files[file] = table.ReplaceAllString(string(data), "")
		}
		if !regexp.MustCompile(regexp.QuoteMeta(name) + `(_bucket|_sum|_count)?\b`).MatchString(files[file]) {
			t.Errorf("%s is named as the reader of %s but does not mention it", file, name)
		}
	}
}
