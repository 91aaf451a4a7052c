package service

import (
	"bytes"
	rtmetrics "runtime/metrics"
	"strconv"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/fault"
)

// The memory ledger of /v1/stats: two sums an operator can check against each
// other from the daemon's own output, each with its remainder printed.
//
//	held + pooled + headers + spilled + pipeline  ≈  live heap
//	heap + off-heap runtime − released + file     ≈  VmRSS
//
// The first line's left side is what the tenants' summaries keep
// (correlated.Footprint, running counts), what the commit pipeline keeps
// between groups and the buffers of the ingest members waiting in its queue;
// its remainder is the buffers of requests and stream frames the committer
// has taken and not yet acknowledged or that wait in a sync.Pool, the
// tenants' answer memos and registry, and the HTTP, stream and log state.
// The second line is the runtime's own split
// (runtime/metrics, which reads without stopping the world) against the
// kernel's figure; its remainder is pages the runtime has mapped and never
// touched (negative) or memory outside the runtime's books.

// readRuntime fills the runtime's split of m from runtime/metrics. A name this
// runtime does not know adds nothing.
func readRuntime(m *client.Memory) {
	into := []struct {
		name string
		dst  *int64
	}{
		{"/gc/heap/live:bytes", &m.HeapLiveBytes},
		{"/gc/heap/goal:bytes", &m.HeapGoalBytes},
		{"/memory/classes/heap/objects:bytes", &m.HeapObjectsBytes},
		{"/memory/classes/heap/unused:bytes", &m.HeapUnusedBytes},
		{"/memory/classes/heap/free:bytes", &m.HeapFreeBytes},
		{"/memory/classes/heap/released:bytes", &m.HeapReleasedBytes},
		{"/memory/classes/heap/stacks:bytes", &m.StacksBytes},
		{"/memory/classes/os-stacks:bytes", &m.StacksBytes},
		{"/memory/classes/metadata/mcache/free:bytes", &m.MetadataBytes},
		{"/memory/classes/metadata/mcache/inuse:bytes", &m.MetadataBytes},
		{"/memory/classes/metadata/mspan/free:bytes", &m.MetadataBytes},
		{"/memory/classes/metadata/mspan/inuse:bytes", &m.MetadataBytes},
		{"/memory/classes/metadata/other:bytes", &m.MetadataBytes},
		{"/memory/classes/profiling/buckets:bytes", &m.ProfilingBytes},
		{"/memory/classes/other:bytes", &m.OtherBytes},
		{"/memory/classes/total:bytes", &m.TotalBytes},
	}
	samples := make([]rtmetrics.Sample, len(into))
	for i, f := range into {
		samples[i].Name = f.name
	}
	rtmetrics.Read(samples)
	for i, f := range into {
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			*f.dst += int64(samples[i].Value.Uint64())
		}
	}
}

// readProcStatus fills the kernel's view of the resident set from
// /proc/self/status; where there is none the fields stay zero. It reads the
// real file system, not Config.FS: this is no storage path, and a fault plan
// counts the operations it sees.
func readProcStatus(m *client.Memory) {
	data, err := fault.OS().ReadFile("/proc/self/status")
	if err != nil {
		return
	}
	for _, f := range []struct {
		key string
		dst *int64
	}{{"VmRSS:", &m.VmRSSBytes}, {"RssFile:", &m.RssFileBytes}} {
		if i := bytes.Index(data, []byte(f.key)); i >= 0 {
			fields := bytes.Fields(data[i+len(f.key):])
			if len(fields) > 0 {
				kb, _ := strconv.ParseInt(string(fields[0]), 10, 64)
				*f.dst = kb << 10
			}
		}
	}
}

// memoryLedgerLocked starts the ledger with what only the driver lock makes
// readable: the tenants' footprints and the committer's scratch. The tenant
// figures are named's when one is given and the whole registry's otherwise;
// accounted is every tenant's and the pipeline's bytes, for the remainder
// finishLedger computes once the lock is released. A spilled tenant counts
// what noteFootprintLocked counts, its image's length. For the aggregates
// whose Footprint is a walk (Config.countsBytes) this walks every live
// tenant — stats-rate traffic, like /metrics' Space. Callers hold s.mu.
func (s *Server) memoryLedgerLocked(named *tenant) (m *client.Memory, accounted int64) {
	var all, one correlated.Footprint
	var spilledAll, spilledOne int64
	for _, t := range s.tenants {
		var f correlated.Footprint
		var spilled int64
		if t.eng != nil {
			f = t.eng.Footprint()
		} else {
			spilled = int64(len(t.pending))
		}
		all = all.Plus(f)
		spilledAll += spilled
		if t == named {
			one, spilledOne = f, spilled
		}
	}
	if named == nil {
		one, spilledOne = all, spilledAll
	}
	m = &client.Memory{
		HeldBytes: one.Held, PooledBytes: one.Pooled, HeaderBytes: one.Headers, SpilledBytes: spilledOne,
		ApplyBufBytes: 24 * int64(cap(s.applyBuf)),
		GroupBufBytes: int64(cap(s.groupBuf)),
	}
	return m, all.Total() + spilledAll + m.ApplyBufBytes + m.GroupBufBytes
}

// queuedMemberBytes is what the ingest members waiting in the commit queue
// hold: the buffers they arrived in (capacities). It takes the queue's lock
// alone.
func (s *Server) queuedMemberBytes() int64 {
	p := &s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, j := range p.queue {
		n += int64(cap(j.member))
	}
	return n
}

// finishLedger adds the runtime's and the kernel's figures and the two
// remainders. It takes no lock.
func finishLedger(m *client.Memory, accounted int64) {
	readRuntime(m)
	readProcStatus(m)
	m.HeapUnaccountedBytes = m.HeapLiveBytes - accounted
	if m.VmRSSBytes > 0 {
		m.RSSUnaccountedBytes = m.VmRSSBytes - m.RssFileBytes - (m.TotalBytes - m.HeapReleasedBytes)
	}
}
