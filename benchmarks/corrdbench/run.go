package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/gen"
)

// workload is one traffic shape. Every workload uses exactly two
// connections, each driven by one goroutine, because the harness shares
// the machine's two cores with the daemon it measures.
//
// The work is fixed, not the time: a run sends nominal·seconds tuples
// (plus a fifth as much to warm up), which takes about --seconds on the
// machine the nominal rates were set on. With the same tuples every run,
// what the daemon holds afterwards — space, memory, accuracy, the log to
// replay — repeats, and so does the number of latency samples.
type workload struct {
	name      string
	stream    bool          // ingest over client.DialStream, else client.AddBatch
	frame     int           // tuples per request
	zipf      bool          // gen.Zipf(alpha 1), else gen.Uniform
	tenants   int           // keyed tenants the batches rotate over; 0 = the default tenant
	nominal   int           // tuples/s the work is sized by; the offered rate in an open loop
	paced     bool          // open loop: one connection sends on a schedule, the other queries
	queryRate int           // open loop: QueryBatch calls/s on the second connection
	cold      bool          // no warm-up: first touches are part of the traffic
	maxStale  time.Duration // corrd's -query-max-stale; checks wait it out
}

// The names are fixed: BENCHMARK.json lists them, and later changes are
// compared workload by workload.
var workloads = []workload{
	{name: "stream-saturate", stream: true, frame: 256, nominal: 300000},
	{name: "http-small", frame: 16, nominal: 20000},
	{name: "mixed-paced", stream: true, frame: 256, zipf: true, nominal: 50000, paced: true, queryRate: 25,
		maxStale: 2 * time.Second},
	{name: "tenants-restart", frame: 256, zipf: true, tenants: 4, nominal: 30000, cold: true},
}

// flags are the corrd flags the shape needs beyond serverFlags.
func (w workload) flags() (f []string) {
	if w.maxStale > 0 {
		f = append(f, "-query-max-stale", w.maxStale.String())
	}
	if w.tenants > 0 {
		f = append(f, "-max-tenants", "16")
	}
	return f
}

// frames is how many warm-up and measured frames each ingest connection
// sends.
func (w workload) frames(seconds int) (warm, measured int) {
	conns := 2
	if w.paced {
		conns = 1
	}
	measured = w.nominal * seconds / w.frame / conns
	if !w.cold {
		warm = measured / 5
	}
	return warm, measured
}

const (
	eps        = 0.15    // the server's -eps: the bound rel_err_max is checked against
	xdom       = 100001  // identifier domain of the generated tuples
	ydom       = 1000001 // y domain; the server's -ymax is ydom-1
	seedStride = 1000003 // client i draws from seed + i·seedStride, as cmd/corrgen does

	setupStarts   = 15                    // cold starts timed for setup_s
	readQueries   = 200                   // read-back queries on the quiet server: p95 keeps 10 beyond it
	stalledAfter  = 25 * time.Millisecond // an ack slower than this counts in client.stalled_share
	failedLatency = 30 * time.Second      // what a failed request is charged: the client timeout
	backlogLimit  = 2 * time.Second       // open loop: more than this much offered load unacked is unsustainable
)

var cutoffs = []uint64{250000, 500000, 750000}

// sample is one request as the client saw it, on the run clock.
type sample struct {
	start, end int64 // ns; start is the due time in an open loop
	tuples     int   // 0 for a query
	measured   bool  // false for warm-up traffic
	failed     bool
}

// lane is one connection and the goroutine issuing requests on it.
type lane struct {
	name    string // span name: client.ack or client.query
	samples []sample
	spans   []span
	lagNs   []float64 // open loop: how late each request was issued
	acked   atomic.Int64
	backlog int64  // open loop: tuples sent and not yet acknowledged when the schedule ended
	tuples  [][]xy // per tenant, every tuple this lane sent
}

// run is one workload executed once.
type run struct {
	w       workload
	env     *env
	seed    uint64
	seconds int
	trace   bool

	began     time.Time
	srv       *corrd
	epoch     time.Time
	t0, t1    int64         // the measured phase on the run clock
	tm        int64         // traced run: spans are recorded from here to t1
	measuring chan struct{} // closed when the first measured request is about to go out
	enter     [2]sync.Once  // guard t0 and tm: the first lane there sets them
	tracing   atomic.Bool

	tenants []string // "" is the default tenant
	truth   []truth  // per tenant, the exact answers over every tuple sent

	m         map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

func (r *run) sleepUntil(ctx context.Context, t int64) {
	if d := time.Duration(t - r.now()); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
}

// phase notes on standard error how far the run has come.
func (r *run) phase(name string) {
	fmt.Fprintf(os.Stderr, "%s %s: %s at %.1fs\n", r.w.name, time.Now().Format("15:04:05"), name, time.Since(r.began).Seconds())
}

// pace blocks until request k of an open loop is due. Latency is timed
// from due, not from the return, so a request that a stall made late is
// charged the wait; lag says how late the loop itself ran.
func (r *run) pace(ctx context.Context, k int, period int64) (due, lag int64) {
	due = int64(k) * period
	r.sleepUntil(ctx, due)
	return due, r.now() - due
}

func (r *run) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// record books one finished request. Each lane has one recording
// goroutine, so the slices need no lock.
func (r *run) record(l *lane, s sample) {
	l.samples = append(l.samples, s)
	if !s.failed {
		l.acked.Add(int64(s.tuples))
	}
	if r.tracing.Load() {
		l.spans = append(l.spans, span{Name: l.name, Start: s.start, End: s.end, Parent: "measure", Req: len(l.samples)})
	}
}

// laneClients returns one client per tenant, all sharing one connection.
// They do not retry: a request that fails is counted, not hidden.
func laneClients(base string, tenants []string) []*client.Client {
	hc := &http.Client{
		Timeout:   failedLatency,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}
	cls := make([]*client.Client, len(tenants))
	for t, name := range tenants {
		opts := []client.Option{client.WithHTTPClient(hc), client.WithRetries(-1)}
		if name != "" {
			opts = append(opts, client.WithTenant(name))
		}
		cls[t] = client.New(base, opts...)
	}
	return cls
}

// httpLane returns a default-tenant client that holds one connection.
func httpLane(base string) *client.Client { return laneClients(base, []string{""})[0] }

func (r *run) generator(i int) gen.Stream {
	seed := r.seed + uint64(i)*seedStride
	if r.w.zipf {
		return gen.Zipf(math.MaxInt, xdom, ydom, 1, seed)
	}
	return gen.Uniform(math.MaxInt, xdom, ydom, seed)
}

// fill draws the next frame and keeps a copy for the exact answers.
func (l *lane) fill(g gen.Stream, tenant int, batch []correlated.Tuple) {
	for j := range batch {
		t, _ := g.Next()
		batch[j] = correlated.Tuple{X: t.X, Y: t.Y, W: 1}
		l.tuples[tenant] = append(l.tuples[tenant], xy{uint32(t.X), uint32(t.Y)})
	}
}

// ingestLane is client i: it sends its warm-up frames and then its
// measured frames, back to back in a closed loop, each when it is due
// in an open one.
func (r *run) ingestLane(ctx context.Context, i int, l *lane) error {
	g := r.generator(i)
	batch := make([]correlated.Tuple, r.w.frame)
	warm, measured := r.w.frames(r.seconds)
	period := r.period()

	var send func(tenant int, s sample) error
	var finish func() error
	if r.w.stream {
		const ackBuffer = 2 * client.DefaultStreamWindow
		st, err := client.DialStream(ctx, r.srv.stream, client.WithAckBuffer(ackBuffer))
		if err != nil {
			return err
		}
		// Room for every frame Send lets out before it blocks on a full
		// window, plus the acks buffered ahead of the goroutine below.
		inflight := make(chan sample, client.DefaultStreamWindow+ackBuffer+1)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for a := range st.Acks() {
				s := <-inflight
				s.end, s.failed = r.now(), a.Err() != nil
				r.record(l, s)
			}
		}()
		send = func(_ int, s sample) error {
			inflight <- s
			return st.Send(batch)
		}
		finish = func() error {
			err := st.Close()
			<-drained
			for len(inflight) > 0 { // frames the connection died under
				s := <-inflight
				s.end, s.failed = r.now(), true
				r.record(l, s)
			}
			return err
		}
	} else {
		cls := laneClients(r.srv.base(), r.tenants)
		send = func(tenant int, s sample) error {
			err := cls[tenant].AddBatch(ctx, batch)
			s.end, s.failed = r.now(), err != nil
			r.record(l, s)
			return nil
		}
		finish = func() error { return nil }
	}

	var sent int64
	for k := 0; k < warm+measured && ctx.Err() == nil; k++ {
		s := sample{start: r.now(), tuples: len(batch), measured: k >= warm}
		if r.w.paced {
			due, lag := r.pace(ctx, k, period)
			l.lagNs = append(l.lagNs, float64(lag))
			s.start = due
		}
		switch k {
		case warm:
			r.enter[0].Do(func() { r.t0 = s.start; close(r.measuring) })
		case warm + measured/2:
			r.enter[1].Do(func() { r.tm = s.start; r.tracing.Store(r.trace) })
		}
		// The two clients start half a rotation apart, so they rarely
		// address the same tenant at once.
		tenant := (k + i*len(r.tenants)/2) % len(r.tenants)
		l.fill(g, tenant, batch)
		sent += int64(len(batch))
		if err := send(tenant, s); err != nil {
			finish()
			return err
		}
	}
	l.backlog = sent - l.acked.Load()
	return finish()
}

// period is the open loop's time between ingest frames.
func (r *run) period() int64 {
	return int64(time.Second) * int64(r.w.frame) / int64(r.w.nominal)
}

// queryLane issues multi-cutoff queries on a fixed schedule for as long
// as the ingest schedule beside it runs.
func (r *run) queryLane(ctx context.Context, l *lane) error {
	cl := httpLane(r.srv.base())
	warm, measured := r.w.frames(r.seconds)
	period := int64(time.Second) / int64(r.w.queryRate)
	for k := 0; ctx.Err() == nil && int64(k)*period < int64(warm+measured)*r.period(); k++ {
		due, lag := r.pace(ctx, k, period)
		l.lagNs = append(l.lagNs, float64(lag))
		_, err := cl.QueryBatch(ctx, "le", cutoffs)
		r.record(l, sample{start: due, end: r.now(), measured: due >= int64(warm)*r.period(), failed: err != nil})
	}
	return nil
}

// snapshot is the daemon's counters and /proc figures at one instant.
type snapshot struct {
	at    int64
	stats client.Stats
	proc  procSample
}

func (r *run) snapshot(ctx context.Context, admin *client.Client) (snapshot, error) {
	st, err := admin.Stats(ctx)
	if err != nil {
		return snapshot{}, fmt.Errorf("stats: %w", err)
	}
	p, err := r.srv.proc()
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{at: r.now(), stats: st, proc: p}, nil
}

// setup times a cold start several times — spawn, /readyz, both
// connections dialled — and leaves the last daemon running. The
// fixed-length warm-up that follows is left out of the figure: it would
// bury the start-up cost a later change might add to.
func (r *run) setup(ctx context.Context, dir string) error {
	var took []float64
	for i := 0; i < setupStarts; i++ {
		walDir := filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return err
		}
		srv, err := newCorrd(r.env.corrdBin, walDir, r.w.flags())
		if err != nil {
			return err
		}
		r.srv = srv
		begin := time.Now()
		if err := srv.start(ctx); err != nil {
			return err
		}
		for c := 0; c < 2; c++ {
			if r.w.stream && (c == 0 || !r.w.paced) {
				st, err := client.DialStream(ctx, srv.stream)
				if err != nil {
					return err
				}
				st.Close()
			} else if err := httpLane(srv.base()).Healthy(ctx); err != nil {
				return err
			}
		}
		took = append(took, time.Since(begin).Seconds())
		if i < setupStarts-1 {
			srv.kill()
		}
	}
	r.m["setup_s"] = median(took)
	return nil
}

// measure runs the two lanes through warm-up and the measured work and
// takes the counter snapshots at both ends of the latter.
func (r *run) measure(ctx context.Context, admin *client.Client) (lanes []*lane, a, b snapshot, err error) {
	if r.w.cold {
		// No warm-up, so the opening snapshot is taken before the
		// first request instead of beside the traffic.
		if a, err = r.snapshot(ctx, admin); err != nil {
			return
		}
	}
	r.epoch = time.Now()
	r.measuring = make(chan struct{})
	lanes = []*lane{{name: "client.ack"}, {name: "client.ack"}}
	for _, l := range lanes {
		l.tuples = make([][]xy, len(r.tenants))
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 1 && r.w.paced {
				l.name = "client.query"
				errs[i] = r.queryLane(ctx, l)
			} else {
				errs[i] = r.ingestLane(ctx, i, l)
			}
		}()
	}
	if r.w.cold {
		a.at = 0
	} else {
		select {
		case <-r.measuring:
		case <-ctx.Done():
		}
		if a, err = r.snapshot(ctx, admin); err != nil {
			wg.Wait()
			return
		}
	}
	wg.Wait()
	r.tracing.Store(false)
	for _, e := range errs {
		if e != nil {
			r.problemf("lane: %v", e)
		}
	}
	if err = ctx.Err(); err != nil {
		return
	}
	for _, l := range lanes {
		for _, s := range l.samples {
			if s.measured {
				r.t1 = max(r.t1, s.end)
			}
		}
	}
	b, err = r.snapshot(ctx, admin)
	return
}

// latenciesMs returns the ascending latencies of the measured requests
// of the ingest or of the query lanes, a failed request charged
// failedLatency.
func latenciesMs(lanes []*lane, query bool) []float64 {
	var out []float64
	for _, l := range lanes {
		if (l.name == "client.query") != query {
			continue
		}
		for _, s := range l.samples {
			if !s.measured {
				continue
			}
			d := float64(s.end-s.start) / 1e6
			if s.failed {
				d = float64(failedLatency) / 1e6
			}
			out = append(out, d)
		}
	}
	sort.Float64s(out)
	return out
}

// ackedRate is the measured tuples acknowledged from from up to to, per
// second of that interval.
func ackedRate(lanes []*lane, from, to int64) float64 {
	var n int
	for _, l := range lanes {
		for _, s := range l.samples {
			if s.measured && !s.failed && s.end >= from && s.end < to {
				n += s.tuples
			}
		}
	}
	return float64(n) / (float64(to-from) / 1e9)
}

func (r *run) setPercentile(name string, sorted []float64, p float64) {
	v, err := percentile(sorted, p)
	if err != nil {
		r.problemf("%s: %v", name, err)
		return
	}
	r.m[name] = v
}

// clientMetrics turns the lanes' samples into the client-side figures.
func (r *run) clientMetrics(lanes []*lane) {
	var backlog int64
	for _, l := range lanes {
		backlog += l.backlog
		r.attempted += len(l.samples)
		for _, s := range l.samples {
			if s.failed {
				r.failed++
			}
		}
	}

	r.m["ingest_tuples_per_s"] = ackedRate(lanes, r.t0, r.t1+1)
	if r.trace {
		r.m["trace.overhead_ratio"] = ratio(ackedRate(lanes, r.tm, r.t1+1), ackedRate(lanes, r.t0, r.tm))
	}

	acks := latenciesMs(lanes, false)
	r.setPercentile("ack_p50_ms", acks, 50)
	r.setPercentile("ack_p99_ms", acks, 99)
	r.m["client.ack_mean_ms"] = mean(acks)
	stalled := sort.SearchFloat64s(acks, float64(stalledAfter)/1e6)
	r.m["client.stalled_share"] = ratio(float64(len(acks)-stalled), float64(len(acks)))

	if r.w.paced {
		qs := latenciesMs(lanes, true)
		r.setPercentile("query_p50_ms", qs, 50)
		r.setPercentile("query_p95_ms", qs, 95)
		r.m["client.query_mean_ms"] = mean(qs)
	}

	var lag []float64
	for _, l := range lanes {
		lag = append(lag, l.lagNs...)
	}
	sort.Float64s(lag)
	r.m["gen.lag_p99_ms"] = 0
	if len(lag) > 0 {
		r.setPercentile("gen.lag_p99_ms", lag, 99)
		r.m["gen.lag_p99_ms"] /= 1e6
	}
	r.m["gen.backlog_tuples"] = float64(backlog)
	if limit := float64(r.w.nominal) * backlogLimit.Seconds(); r.w.paced && float64(backlog) > limit {
		r.problemf("%d tuples were unacknowledged when the schedule ended, more than %.0f: the paced rate is not sustainable here", backlog, limit)
	}
}

// counterMetrics turns the two snapshots into the server-side figures.
func (r *run) counterMetrics(a, b snapshot) {
	// HTTP and stream ingest are counted apart by the server.
	tuples := float64(b.stats.TuplesIngested + b.stats.StreamTuples - a.stats.TuplesIngested - a.stats.StreamTuples)
	secs := float64(b.at-a.at) / 1e9
	cpuUser, cpuSys := b.proc.userS-a.proc.userS, b.proc.sysS-a.proc.sysS

	r.m["wal_bytes_per_tuple"] = ratio(float64(b.stats.WALAppendedBytes-a.stats.WALAppendedBytes), tuples)
	r.m["cpu_s_per_mtuple"] = ratio(cpuUser+cpuSys, tuples/1e6)
	r.m["rss_peak_mb"] = b.proc.hwmMB
	r.m["corrd.cpu_user_s"] = cpuUser
	r.m["corrd.cpu_sys_s"] = cpuSys
	r.m["corrd.rss_end_mb"] = b.proc.rssMB

	for _, stage := range []string{"enqueue", "apply", "append", "fsync", "ack"} {
		_, avg := stageDelta(a.stats.PipelineStages[stage], b.stats.PipelineStages[stage])
		r.m["service."+stage+"_ms_avg"] = avg
	}
	groups, applyMs := stageDelta(a.stats.PipelineStages["apply"], b.stats.PipelineStages["apply"])
	r.m["service.apply_us_per_tuple"] = ratio(float64(groups)*applyMs*1000, tuples)
	r.m["service.group_requests_avg"] = ratio(float64(b.stats.IngestGroupReqs-a.stats.IngestGroupReqs), float64(b.stats.IngestGroups-a.stats.IngestGroups))
	r.m["service.group_tuples_avg"] = ratio(tuples, float64(b.stats.IngestGroups-a.stats.IngestGroups))
	hits := float64(b.stats.QueryCacheHits - a.stats.QueryCacheHits)
	rebuilds := float64(b.stats.QueryCacheRebuilds - a.stats.QueryCacheRebuilds)
	r.m["service.query_cache_hit_ratio"] = ratio(hits, hits+rebuilds)
	r.m["service.query_rebuilds_per_s"] = rebuilds / secs
	r.m["service.tenants_live"] = float64(b.stats.TenantsLive)
	r.m["wal.fsyncs_per_ktuple"] = ratio(float64(b.stats.WALFsyncs-a.stats.WALFsyncs), tuples/1000)
}

// tenantView is what the daemon holds for one tenant.
type tenantView struct {
	count   uint64
	space   int64
	summary []byte
}

func (r *run) views(ctx context.Context, cls []*client.Client) ([]tenantView, error) {
	out := make([]tenantView, len(cls))
	for t, cl := range cls {
		st, err := cl.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("tenant %q stats: %w", r.tenants[t], err)
		}
		img, err := cl.Summary(ctx)
		if err != nil {
			return nil, fmt.Errorf("tenant %q summary: %w", r.tenants[t], err)
		}
		out[t] = tenantView{count: st.Count, space: st.Space, summary: img}
	}
	return out, nil
}

// readBack queries the now quiet server: every tenant in both
// directions for the accuracy check, then round and round until
// readQueries answers have been timed. Where the workload has no query
// lane of its own, these are its query latencies.
func (r *run) readBack(ctx context.Context, cls []*client.Client) error {
	// A cached answer may be up to -query-max-stale old; wait it out so
	// the estimates cover every acknowledged tuple.
	if r.w.maxStale > 0 {
		r.sleepUntil(ctx, r.now()+int64(r.w.maxStale+100*time.Millisecond))
	}
	type key struct {
		tenant int
		op     string
	}
	answers := make(map[key][]client.QueryResult)
	var lat []float64
	for k := 0; k < max(readQueries, 2*len(cls)); k++ {
		q := key{tenant: (k / 2) % len(cls), op: []string{"le", "ge"}[k%2]}
		begin := time.Now()
		res, err := cls[q.tenant].QueryBatch(ctx, q.op, cutoffs)
		d := time.Since(begin)
		r.attempted++
		if err != nil {
			r.failed++
			d = failedLatency
			r.problemf("read-back query %s on tenant %q: %v", q.op, r.tenants[q.tenant], err)
		} else if len(res) != len(cutoffs) {
			r.problemf("read-back query %s on tenant %q: %d answers for %d cutoffs", q.op, r.tenants[q.tenant], len(res), len(cutoffs))
		} else if _, seen := answers[q]; !seen {
			answers[q] = res
		}
		lat = append(lat, float64(d)/1e6)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if !r.w.paced {
		sort.Float64s(lat)
		r.setPercentile("query_p50_ms", lat, 50)
		r.setPercentile("query_p95_ms", lat, 95)
		r.m["client.query_mean_ms"] = mean(lat)
	}

	var worst float64
	for q, res := range answers {
		for i, qr := range res {
			want := r.truth[q.tenant].le[i]
			if q.op == "ge" {
				want = r.truth[q.tenant].ge[i]
			}
			worst = math.Max(worst, math.Abs(qr.Estimate-want)/want)
		}
	}
	r.m["rel_err_max"] = worst
	if worst > eps {
		r.problemf("rel_err_max %.4f exceeds eps %.2f", worst, eps)
	}
	return nil
}

// restart checks the acked-exact promise: kill -9, bring the daemon up
// on the same log, and every tenant must hold the same count and the
// same summary bytes as before. It times the recovery on the way.
func (r *run) restart(ctx context.Context, admin *client.Client, cls []*client.Client, before []tenantView) error {
	var tuples uint64
	for t, v := range before {
		tuples += v.count
		if want := r.truth[t].count; v.count != want {
			r.problemf("tenant %q holds %d tuples, %d were acknowledged", r.tenants[t], v.count, want)
		}
	}
	r.srv.kill()
	begin := time.Now()
	if err := r.srv.start(ctx); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	recovery := time.Since(begin).Seconds()
	r.m["recovery_s"] = recovery

	st, err := admin.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats after restart: %w", err)
	}
	r.m["wal.replay_s"] = st.WALReplaySeconds
	r.m["wal.replay_tuples_per_s"] = ratio(float64(tuples), st.WALReplaySeconds)
	r.m["service.ready_minus_replay_s"] = recovery - st.WALReplaySeconds

	after, err := r.views(ctx, cls)
	if err != nil {
		return err
	}
	for t := range before {
		if after[t].count != before[t].count {
			r.problemf("tenant %q: %d tuples after the restart, %d before", r.tenants[t], after[t].count, before[t].count)
		}
		if !bytes.Equal(after[t].summary, before[t].summary) {
			r.problemf("tenant %q: summary bytes differ across the restart", r.tenants[t])
		}
	}
	return nil
}

// execute runs the workload once and fills r.m.
func (r *run) execute(ctx context.Context) error {
	dir, err := os.MkdirTemp(r.env.scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer func() {
		if r.srv != nil {
			r.srv.kill()
		}
	}()

	r.m = make(map[string]float64)
	r.tenants = []string{""}
	if r.w.tenants > 0 {
		r.tenants = nil
		for t := 0; t < r.w.tenants; t++ {
			r.tenants = append(r.tenants, fmt.Sprintf("t%d", t))
		}
	}

	r.began = time.Now()
	if err := r.setup(ctx, dir); err != nil {
		return err
	}
	r.phase("set up, traffic starts")
	admin := httpLane(r.srv.base())
	lanes, a, b, err := r.measure(ctx, admin)
	if err != nil {
		return err
	}
	r.phase("traffic drained")
	for t := range r.tenants {
		r.truth = append(r.truth, exactAnswers(lanes[0].tuples[t], lanes[1].tuples[t]))
	}
	r.clientMetrics(lanes)
	r.counterMetrics(a, b)

	cls := laneClients(r.srv.base(), r.tenants)
	if err := r.readBack(ctx, cls); err != nil {
		return err
	}
	r.phase("read back and checked against the exact answers")
	before, err := r.views(ctx, cls)
	if err != nil {
		return err
	}
	r.phase("summaries fetched, killing corrd")
	var space float64
	for _, v := range before {
		space += float64(v.space)
	}
	r.m["space_counters_per_tenant"] = space / float64(len(before))
	if err := r.restart(ctx, admin, cls, before); err != nil {
		return err
	}
	r.phase("restarted and compared")
	r.m["failed_share"] = ratio(float64(r.failed), float64(r.attempted))
	if r.failed > 0 {
		r.problemf("%d of %d requests failed", r.failed, r.attempted)
	}

	if r.trace {
		tr := &tracer{now: r.now}
		for _, l := range lanes {
			tr.spans = append(tr.spans, l.spans...)
		}
		tr.spans = append(tr.spans, span{Name: "measure", Start: r.tm, End: r.t1})
		if err := r.ledger(ctx, tr, filepath.Join(dir, "ledger-wal")); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(r.env.scratch, "trace-"+r.w.name+".json")); err != nil {
			return err
		}
		r.phase("ledger replayed, spans written")
	}
	return nil
}
