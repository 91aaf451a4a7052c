package service

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"github.com/streamagg/correlated/internal/wal"
)

// Dependency-free Prometheus-text observability. The instrument set is
// fixed at startup (no dynamic label cardinality): counters for the
// three traffic classes, one latency histogram per handler, and gauges
// for tenant and snapshot state. Everything is atomics — recording on
// the hot path takes no lock, and a scrape takes no driver lock — and the
// /metrics handler renders the text exposition format directly. A series
// states one fact: what another series or /v1/stats already says is not
// rendered again.

// counter is a monotonically increasing metric.
type counter struct{ v atomic.Uint64 }

func (c *counter) Inc()         { c.v.Add(1) }
func (c *counter) Add(n uint64) { c.v.Add(n) }
func (c *counter) Load() uint64 { return c.v.Load() }

// gauge is a settable instantaneous value; Add covers up/down counts
// like live connections.
type gauge struct{ v atomic.Int64 }

func (g *gauge) Set(n int64) { g.v.Store(n) }
func (g *gauge) Add(d int64) { g.v.Add(d) }
func (g *gauge) Load() int64 { return g.v.Load() }

// fgauge is a float-valued gauge (bit-stored for atomicity).
type fgauge struct{ bits atomic.Uint64 }

func (g *fgauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }
func (g *fgauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// histogram is a fixed-bucket latency histogram (cumulative on render,
// like Prometheus expects; per-bucket on record, so Observe is a few
// atomic adds). The observed sum is kept per bucket in fixed-point
// nanounits: integer adds are wait-free, where the old single-word
// float sum needed a CAS retry loop that spun under contention.
type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Uint64
	sums   []atomic.Uint64 // per-bucket observed sum, nanounits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
		sums:   make([]atomic.Uint64, len(bounds)+1),
	}
}

// defaultBuckets spans sub-millisecond handler hits through multi-second
// forwards of large bodies.
func defaultBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
}

// nanounits converts a non-negative observation to 1e-9 fixed point.
// At that resolution a uint64 bucket sum holds ~584 years of
// seconds-valued observations before wrapping.
func nanounits(v float64) uint64 { return uint64(v*1e9 + 0.5) }

func (h *histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sums[i].Add(nanounits(v))
	h.count.Add(1)
}

// nanoSum totals the per-bucket fixed-point sums, in nanounits.
func (h *histogram) nanoSum() uint64 {
	var total uint64
	for i := range h.sums {
		total += h.sums[i].Load()
	}
	return total
}

// sum is nanoSum back in the observed unit.
func (h *histogram) sum() float64 { return float64(h.nanoSum()) / 1e9 }

// quantile approximates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the rank; mass beyond the
// last bound reports the last bound. Bucket counts are read racily
// against concurrent observers, which is fine for an estimate.
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum, lower float64
	for i, ub := range h.bounds {
		n := float64(h.counts[i].Load())
		if n > 0 && cum+n >= rank {
			return lower + (ub-lower)*(rank-cum)/n
		}
		cum += n
		lower = ub
	}
	return lower
}

// metrics is the service's instrument registry.
type metrics struct {
	start time.Time

	tuplesIngested counter
	ingestErrors   counter

	// Answer memo: query requests served wholly from it vs requests that
	// took the driver lock to evaluate on the live summary (/v1/stats
	// query_cache_hits and query_cache_rebuilds).
	queryCacheHits     counter
	queryCacheRebuilds counter

	// Streaming ingest (the -stream-addr transport): live and lifetime
	// connections, frames decoded and enqueued, tuples they carried,
	// and frames rejected (bad hello, protocol desync, bad payload).
	streamConns       gauge
	streamConnsTotal  counter
	streamFrames      counter
	streamTuples      counter
	streamFrameErrors counter

	// Log forwarding (forward.go): a coordinator counts the site records
	// it applied and dropped at or below a site's mark, and the forwards it
	// refused; a site counts its forwards the coordinator confirmed, the
	// attempts that failed, and those it refused.
	forwardsApplied     counter
	forwardsDuplicate   counter
	forwardsRejected    counter
	siteForwardsSent    counter
	siteForwardsFailed  counter
	siteForwardsRefused counter

	queriesLE   counter
	queriesGE   counter
	queryErrors counter

	snapshotsWritten counter
	snapshotErrors   counter
	lastSnapshotUnix gauge // 0 until the first snapshot
	snapshotBytes    gauge

	walAppendErrors  counter    // writes nacked because their append or their group's fsync failed
	walFsync         *histogram // fsync latency on the append/checkpoint path
	walReplayRecords gauge      // state records replayed at the last startup
	walReplaySeconds fgauge     // wall-clock duration of that replay

	// Multi-tenant registry (tenant.go): namespace lifecycle and the
	// governance caps' rejection counts.
	tenantsCreated       counter
	tenantsSpilled       counter
	tenantsRestored      counter
	tenantRejectedLimit  counter // creations refused by MaxTenants (429)
	tenantRejectedMemory counter // creations refused by MaxTenantBytes (413)

	// Pipeline-stage tracing (trace.go): where an acknowledged ingest's
	// time goes — queue wait, engine apply, WAL append, fsync, ack
	// wake — plus the commit-group shape those costs amortize over and
	// the live queue depth ahead of the committer.
	stages      [numStages]*histogram
	groupSize   *histogram // ingest requests per committed group
	groupTuples *histogram // tuples per committed group
	queueDepth  gauge      // jobs waiting in the commit pipeline

	promotions counter // standby promotions (replication.go)

	// Overload shedding and degraded mode (pipeline.go, health.go): the
	// counters tick at each rejection site.
	ingestShed      counter
	degradedRejects counter

	// Access logging (accesslog.go): records dropped because the ring
	// was full (the serving path never blocks on the log destination)
	// and requests promoted to the main logger by -slow-request.
	accessDropped counter
	slowRequests  counter

	buildInfo string // corrd_build_info sample line, computed once

	handlers map[string]*histogram // request duration per handler
}

// walFsyncBuckets spans an SSD's sub-100µs fsync through a saturated
// spinning disk's hundreds of milliseconds.
func walFsyncBuckets() []float64 {
	return []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now(), handlers: map[string]*histogram{}}
	for _, h := range handlerNames {
		m.handlers[h] = newHistogram(defaultBuckets())
	}
	m.walFsync = newHistogram(walFsyncBuckets())
	for i := range m.stages {
		m.stages[i] = newHistogram(stageBuckets())
	}
	m.groupSize = newHistogram(groupSizeBuckets())
	m.groupTuples = newHistogram(groupTuplesBuckets())
	m.buildInfo = buildInfoLine()
	return m
}

// handlerNames fixes the exposition order of the per-handler histograms.
var handlerNames = []string{"ingest", "forward", "query", "stats", "summary", "promote"}

func (m *metrics) observe(handler string, d time.Duration) {
	if h, ok := m.handlers[handler]; ok {
		h.Observe(d.Seconds())
	}
}

// tenantStats is the registry-derived part of the exposition.
type tenantStats struct {
	total int   // tenants registered (default included)
	live  int   // tenants with a materialized engine
	bytes int64 // Server.tenantBytes: what the tenants keep, heap and arenas
}

// writeHistogram renders one histogram series, optionally with a fixed
// label pair (e.g. `handler="ingest"`) merged into every sample.
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	bucketOpen, plain := "{", ""
	if labels != "" {
		bucketOpen = "{" + labels + ","
		plain = "{" + labels + "}"
	}
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, bucketOpen, formatBound(ub), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, bucketOpen, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, plain, h.sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, plain, h.count.Load())
}

// write renders the Prometheus text exposition format. ws is the log's
// counts; h is the server's health machine, read as it stands.
func (m *metrics) write(w io.Writer, ts tenantStats, ws wal.Stats, h *health) {
	c := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c("corrd_tuples_ingested_total", "Tuples accepted through /v1/ingest.", m.tuplesIngested.Load())
	c("corrd_ingest_errors_total", "Rejected /v1/ingest requests.", m.ingestErrors.Load())
	g("corrd_stream_conns", "Live streaming-ingest connections.", m.streamConns.Load())
	c("corrd_stream_conns_total", "Streaming-ingest connections accepted.", m.streamConnsTotal.Load())
	c("corrd_stream_frames_total", "Stream frames decoded and committed through the ingest pipeline.", m.streamFrames.Load())
	c("corrd_stream_tuples_total", "Tuples accepted over the streaming transport.", m.streamTuples.Load())
	c("corrd_stream_frame_errors_total", "Stream frames rejected (bad hello, desync, malformed payload).", m.streamFrameErrors.Load())
	fmt.Fprintf(w, "# HELP corrd_forwards_total Site log records received on /v1/forward, applied or dropped as duplicates, and forwards rejected.\n")
	fmt.Fprintf(w, "# TYPE corrd_forwards_total counter\n")
	fmt.Fprintf(w, "corrd_forwards_total{result=\"applied\"} %d\n", m.forwardsApplied.Load())
	fmt.Fprintf(w, "corrd_forwards_total{result=\"duplicate\"} %d\n", m.forwardsDuplicate.Load())
	fmt.Fprintf(w, "corrd_forwards_total{result=\"rejected\"} %d\n", m.forwardsRejected.Load())
	fmt.Fprintf(w, "# HELP corrd_queries_served_total Queries answered, by direction.\n")
	fmt.Fprintf(w, "# TYPE corrd_queries_served_total counter\n")
	fmt.Fprintf(w, "corrd_queries_served_total{op=\"le\"} %d\n", m.queriesLE.Load())
	fmt.Fprintf(w, "corrd_queries_served_total{op=\"ge\"} %d\n", m.queriesGE.Load())
	c("corrd_query_errors_total", "Failed /v1/query requests.", m.queryErrors.Load())
	c("corrd_snapshots_written_total", "Snapshots persisted to disk.", m.snapshotsWritten.Load())
	c("corrd_snapshot_errors_total", "Failed snapshot attempts.", m.snapshotErrors.Load())
	g("corrd_snapshot_last_unix_seconds", "Unix time of the last successful snapshot (0 = never).", m.lastSnapshotUnix.Load())
	g("corrd_snapshot_bytes", "Size of the last written snapshot.", m.snapshotBytes.Load())
	fmt.Fprintf(w, "# HELP corrd_site_forwards_total Forwards of this site's log upstream: confirmed by the coordinator, failed (sent again), or refused (the records behind wait; see /v1/stats forward_stalled).\n")
	fmt.Fprintf(w, "# TYPE corrd_site_forwards_total counter\n")
	fmt.Fprintf(w, "corrd_site_forwards_total{result=\"sent\"} %d\n", m.siteForwardsSent.Load())
	fmt.Fprintf(w, "corrd_site_forwards_total{result=\"failed\"} %d\n", m.siteForwardsFailed.Load())
	fmt.Fprintf(w, "corrd_site_forwards_total{result=\"refused\"} %d\n", m.siteForwardsRefused.Load())
	g("corrd_uptime_seconds", "Seconds since the server was created.", int64(time.Since(m.start).Seconds()))
	g("corrd_tenants", "Keyed namespaces registered (the default tenant included).", int64(ts.total))
	g("corrd_tenants_live", "Tenants with a materialized engine (the rest are spilled images).", int64(ts.live))
	g("corrd_tenant_bytes", "Bytes the tenants keep (the MaxTenantBytes input): a live summary's sketch storage and what else its makers' arenas map, and its structs on the heap, as of its last change; a spilled one's image length.", ts.bytes)
	c("corrd_tenant_created_total", "Tenants created over this process's lifetime.", m.tenantsCreated.Load())
	c("corrd_tenant_spills_total", "Idle tenants spilled to an in-memory image.", m.tenantsSpilled.Load())
	c("corrd_tenant_restores_total", "Tenants materialized from an image (a spilled one on touch; the default at a snapshot restore).", m.tenantsRestored.Load())
	fmt.Fprintf(w, "# HELP corrd_tenant_rejected_total Tenant creations refused by a governance cap, by reason.\n")
	fmt.Fprintf(w, "# TYPE corrd_tenant_rejected_total counter\n")
	fmt.Fprintf(w, "corrd_tenant_rejected_total{reason=\"limit\"} %d\n", m.tenantRejectedLimit.Load())
	fmt.Fprintf(w, "corrd_tenant_rejected_total{reason=\"memory\"} %d\n", m.tenantRejectedMemory.Load())

	c("corrd_replica_promotions_total", "Standby promotions (POST /v1/promote, or on primary silence).", m.promotions.Load())

	g("corrd_wal_segments", "WAL segment files on disk.", ws.Segments)
	c("corrd_wal_appends_total", "Records appended to the WAL this process.", ws.Appends)
	c("corrd_wal_appended_bytes_total", "Frame bytes appended to the WAL this process.", ws.AppendedBytes)
	c("corrd_wal_checkpoints_total", "Checkpoint markers written after snapshots.", ws.Checkpoints)
	c("corrd_wal_pruned_segments_total", "Sealed WAL segments deleted by checkpoints.", ws.PrunedSegments)
	g("corrd_wal_last_lsn", "LSN of the most recently appended WAL record.", int64(ws.LastLSN))
	c("corrd_wal_append_errors_total", "Writes refused because their WAL append or their group's fsync failed; none was applied.", m.walAppendErrors.Load())
	g("corrd_wal_replay_records", "State records replayed from the WAL at the last startup.", m.walReplayRecords.Load())
	fmt.Fprintf(w, "# HELP corrd_wal_replay_duration_seconds Wall-clock duration of the startup WAL replay.\n")
	fmt.Fprintf(w, "# TYPE corrd_wal_replay_duration_seconds gauge\n")
	fmt.Fprintf(w, "corrd_wal_replay_duration_seconds %g\n", m.walReplaySeconds.Load())
	fmt.Fprintf(w, "# HELP corrd_wal_fsync_duration_seconds WAL fsync latency on the ack path.\n")
	fmt.Fprintf(w, "# TYPE corrd_wal_fsync_duration_seconds histogram\n")
	writeHistogram(w, "corrd_wal_fsync_duration_seconds", "", m.walFsync)

	fmt.Fprintf(w, "# HELP corrd_http_request_duration_seconds Request latency by handler.\n")
	fmt.Fprintf(w, "# TYPE corrd_http_request_duration_seconds histogram\n")
	for _, name := range handlerNames {
		writeHistogram(w, "corrd_http_request_duration_seconds", fmt.Sprintf("handler=%q", name), m.handlers[name])
	}

	fmt.Fprintf(w, "# HELP corrd_pipeline_stage_seconds Time ingest jobs spend in each commit-pipeline stage (enqueue, apply, append, fsync, ack).\n")
	fmt.Fprintf(w, "# TYPE corrd_pipeline_stage_seconds histogram\n")
	for i, name := range stageNames {
		writeHistogram(w, "corrd_pipeline_stage_seconds", fmt.Sprintf("stage=%q", name), m.stages[i])
	}
	fmt.Fprintf(w, "# HELP corrd_ingest_group_size Ingest requests carried per committed group.\n")
	fmt.Fprintf(w, "# TYPE corrd_ingest_group_size histogram\n")
	writeHistogram(w, "corrd_ingest_group_size", "", m.groupSize)
	fmt.Fprintf(w, "# HELP corrd_ingest_group_tuples Tuples carried per committed group.\n")
	fmt.Fprintf(w, "# TYPE corrd_ingest_group_tuples histogram\n")
	writeHistogram(w, "corrd_ingest_group_tuples", "", m.groupTuples)
	g("corrd_ingest_queue_depth", "Ingest jobs queued ahead of the committer right now.", m.queueDepth.Load())
	g("corrd_health_state", "Degraded-mode state machine position: 0 healthy, 1 degraded (read-only), 2 recovering.", int64(h.state.Load()))
	fmt.Fprintf(w, "# HELP corrd_degraded_seconds_total Cumulative seconds spent out of the healthy state (writes refused).\n")
	fmt.Fprintf(w, "# TYPE corrd_degraded_seconds_total counter\n")
	fmt.Fprintf(w, "corrd_degraded_seconds_total %g\n", h.degradedSeconds())
	c("corrd_ingest_shed_total", "Ingest requests shed by the commit-queue bound (HTTP 429, stream AckBusy).", m.ingestShed.Load())
	c("corrd_degraded_rejects_total", "Writes rejected while degraded (HTTP 503, stream AckDegraded).", m.degradedRejects.Load())
	c("corrd_access_log_dropped_total", "Access-log records dropped because the ring was full.", m.accessDropped.Load())
	c("corrd_slow_requests_total", "Requests at or over the slow-request threshold, promoted to the main logger.", m.slowRequests.Load())

	// Go runtime health, sampled at scrape time with debug.ReadGCStats,
	// which does not stop the world. The memory split is /v1/stats'
	// (memory).
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	g("corrd_go_goroutines", "Live goroutines.", int64(runtime.NumGoroutine()))
	c("corrd_go_gcs_total", "Completed GC cycles.", uint64(gc.NumGC))
	fmt.Fprintf(w, "# HELP corrd_go_gc_pause_total_seconds Cumulative GC stop-the-world pause time.\n")
	fmt.Fprintf(w, "# TYPE corrd_go_gc_pause_total_seconds counter\n")
	fmt.Fprintf(w, "corrd_go_gc_pause_total_seconds %g\n", gc.PauseTotal.Seconds())
	fmt.Fprintf(w, "# HELP corrd_build_info Build metadata; the value is always 1.\n")
	fmt.Fprintf(w, "# TYPE corrd_build_info gauge\n")
	fmt.Fprintf(w, "%s\n", m.buildInfo)
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }
