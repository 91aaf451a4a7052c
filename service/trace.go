package service

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"github.com/streamagg/correlated/client"
)

// Pipeline-stage tracing: every acknowledged ingest rides the commit
// pipeline (pipeline.go), and this file names the stages its latency
// decomposes into, so a throughput regression turns into a diagnosis
// ("the time went to fsync") instead of a bisection. Stamps are plain
// time.Time field writes on the pooled job struct and observations are
// the atomic histogram adds in metrics.go — the hot path takes no lock
// and allocates nothing for tracing.
//
// Stage boundaries:
//
//	enqueue  handler enqueues the job → the committer dequeues its
//	         group (queue wait; per job)
//	append   group dequeue → member admission and concatenation under
//	         the driver lock (its wait included), the per-tenant sort
//	         outside it, the records encoded and appended (per group)
//	fsync    the group-wide durability barrier, wal.Sync outside the
//	         driver lock, for a group with ingest: the rest of
//	         corrd_wal_fsync_duration_seconds' count is the barriers of
//	         groups without (per group)
//	apply    barrier → one AddBatch per touched tenant of what the log
//	         holds, driver-lock wait included (per group)
//	ack      the committer's wake of a member → that member's handler
//	         or stream acker resumes (scheduler handoff; per job)
//
// Per-group stages divide by corrd_ingest_group_size for per-request
// attribution; the same breakdown is served in /v1/stats
// (pipeline_stages), where corrdbench reads it, and embedded in corrgen
// load reports.

// Stage indices into metrics.stages.
const (
	stageEnqueue = iota
	stageApply
	stageAppend
	stageFsync
	stageAck
	numStages
)

// stageNames fixes the exposition order and the stage label values.
var stageNames = [numStages]string{"enqueue", "apply", "append", "fsync", "ack"}

// stageBuckets spans a committer dequeue on an idle queue (~10µs)
// through a saturated spinning disk's fsync (~1s).
func stageBuckets() []float64 {
	return []float64{0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
}

// groupSizeBuckets covers a lone client's groups of one through the
// groupMax member cap.
func groupSizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// groupTuplesBuckets covers wire-speed 16-tuple frames through the
// maxGroupTuples volume cap.
func groupTuplesBuckets() []float64 {
	return []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
}

// stageBreakdown summarizes the stage histograms for /v1/stats: count,
// mean, and interpolated p50/p99 per stage, in milliseconds. Returns
// nil until the pipeline has committed something.
func (m *metrics) stageBreakdown() map[string]client.StageStats {
	var out map[string]client.StageStats
	for i, name := range stageNames {
		h := m.stages[i]
		n := h.count.Load()
		if n == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]client.StageStats, numStages)
		}
		out[name] = client.StageStats{
			Count: n,
			AvgMs: h.sum() / float64(n) * 1000,
			P50Ms: h.quantile(0.50) * 1000,
			P99Ms: h.quantile(0.99) * 1000,
		}
	}
	return out
}

// buildInfoLine renders the corrd_build_info sample once at startup:
// the Go toolchain, the main module path, and the VCS revision when the
// binary was built from a checkout ("unknown" otherwise, e.g. go test
// binaries).
func buildInfoLine() string {
	module, revision := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			module = bi.Main.Path
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	return fmt.Sprintf("corrd_build_info{go_version=%q,module=%q,revision=%q} 1",
		runtime.Version(), module, revision)
}
