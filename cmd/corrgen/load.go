package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/gen"
)

// Load mode: corrgen as a service-level load driver. With -clients N the
// n tuples are split across N concurrent clients, each ingesting its own
// deterministic substream in chunked requests (one AddBatch call with a
// full chunk is exactly one /v1/ingest request). The report — req/s, acked
// tuples/s, and ingest latency percentiles — measures the acknowledged
// ingest path end-to-end, fsync and engine apply included.

// loadReport is the machine-readable result of one load run.
type loadReport struct {
	Target    string  `json:"target"`
	Transport string  `json:"transport"` // "http" or "stream"
	Dataset   string  `json:"dataset"`
	Tuples    int     `json:"tuples"`
	Chunk     int     `json:"chunk"`
	Clients   int     `json:"clients"`
	Tenants   int     `json:"tenants,omitempty"`
	Seconds   float64 `json:"seconds"`

	IngestRequests int     `json:"ingest_requests"`
	AckedTuples    int     `json:"acked_tuples"`
	IngestReqSec   float64 `json:"ingest_req_per_sec"`
	AckedTuplesSec float64 `json:"acked_tuples_per_sec"`
	IngestP50Ms    float64 `json:"ingest_p50_ms"`
	IngestP99Ms    float64 `json:"ingest_p99_ms"`

	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`

	// Server-side commit-pipeline stage breakdown (enqueue, apply,
	// append, fsync, ack), fetched from /v1/stats after the run — how
	// the acknowledged ingest latency above decomposes inside corrd.
	Stages map[string]client.StageStats `json:"pipeline_stages,omitempty"`
}

// loadConfig carries the flag values the load mode needs.
type loadConfig struct {
	target     string
	streamAddr string // non-empty: ingest over the streaming transport
	dataset    string
	n          int
	seed       uint64
	xdom, ydom uint64
	chunk      int
	clients    int
	jsonPath   string
	tenant     string // scope the whole run to one tenant ("" = default)
	tenants    int    // > 1: fan the tuples out across this many tenants
}

func (cfg *loadConfig) transport() string {
	if cfg.streamAddr != "" {
		return "stream"
	}
	return "http"
}

// makeStream builds one substream of the configured dataset family.
func makeStream(cfg *loadConfig, share int, seed uint64) (gen.Stream, error) {
	switch cfg.dataset {
	case "uniform":
		return gen.Uniform(share, cfg.xdom, cfg.ydom, seed), nil
	case "zipf1":
		return gen.Zipf(share, cfg.xdom, cfg.ydom, 1.0, seed), nil
	case "zipf2":
		return gen.Zipf(share, cfg.xdom, cfg.ydom, 2.0, seed), nil
	case "ethernet":
		return gen.Ethernet(share, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", cfg.dataset)
	}
}

// substream builds the i-th of ways substreams — one a client's, or with
// -tenants one a tenant's: the same dataset family, a per-index seed, and an
// even share of the tuple budget. A single-stream oracle regenerates it with
// -seed seed+i*1000003 -n share.
func substream(cfg *loadConfig, i, ways int) (gen.Stream, error) {
	share := cfg.n / ways
	if i < cfg.n%ways {
		share++
	}
	return makeStream(cfg, share, cfg.seed+uint64(i)*1_000_003)
}

// tenantName is the canonical load-mode key for tenant index t.
func tenantName(t int) string { return fmt.Sprintf("t%03d", t) }

// percentileMs returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted durations, in milliseconds: the smallest sample with at least p % of
// the samples at or below it, so a tail is never read below its rank.
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := max(int(math.Ceil(p/100*float64(len(sorted))-1e-9))-1, 0)
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// loadClient builds one load goroutine's client, scoped to tenant when it
// is non-empty: its own transport so N concurrent clients really hold N
// connections (the default transport's 2-idle-conns-per-host pruning would
// otherwise churn connections and serialize what should be concurrent
// offered load).
func loadClient(cfg *loadConfig, tenant string) *client.Client {
	tr := &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 4}
	opts := []client.Option{
		client.WithChunkSize(cfg.chunk),
		client.WithHTTPClient(&http.Client{Timeout: 60 * time.Second, Transport: tr}),
	}
	if tenant != "" {
		opts = append(opts, client.WithTenant(tenant))
	}
	return client.New(cfg.target, opts...)
}

// streamAckBuffer sizes the per-connection ack channel: deep enough
// that the stream's internal ack reader never stalls behind the drain
// goroutine's latency bookkeeping.
const streamAckBuffer = 512

// streamDrive pumps one substream over one streaming connection
// (tenant-scoped when tenant is non-empty): frames pipelined up to the
// window, a drain goroutine consuming acks. Latency is measured per Send
// (one chunk, normally one frame): the drain matches in-order acks back to
// Send timestamps by covered tuple count, so the numbers mean "time from
// handing the chunk to the transport until the server acknowledged its
// commit" — the streaming analogue of the HTTP request latency, with
// pipelining instead of lockstep.
func streamDrive(ctx context.Context, cfg *loadConfig, s gen.Stream, tenant string) (lats []time.Duration, reqs, nAcked int, err error) {
	opts := []client.StreamOption{client.WithAckBuffer(streamAckBuffer)}
	if tenant != "" {
		opts = append(opts, client.WithStreamTenant(tenant))
	}
	st, err := client.DialStream(ctx, cfg.streamAddr, opts...)
	if err != nil {
		return nil, 0, 0, err
	}
	type sendMeta struct {
		t0 time.Time
		n  int
	}
	metas := make(chan sendMeta, 4096)
	lats = make([]time.Duration, 0, s.Len()/cfg.chunk+1)
	drained := make(chan error, 1)
	go func() {
		var derr error
		remaining := 0 // tuples of the pending Send not yet covered by acks
		var t0 time.Time
		for a := range st.Acks() {
			if aerr := a.Err(); aerr != nil && derr == nil {
				derr = aerr
			} else if aerr == nil {
				nAcked += a.Tuples
			}
			for n := a.Tuples; n > 0; {
				if remaining == 0 {
					m := <-metas // pushed right after the Send the ack covers
					remaining, t0 = m.n, m.t0
				}
				if n < remaining {
					remaining -= n
					break
				}
				n -= remaining
				remaining = 0
				lats = append(lats, time.Since(t0))
			}
		}
		drained <- derr
	}()

	batch := make([]correlated.Tuple, 0, cfg.chunk)
	flush := func() error {
		t0 := time.Now()
		n := len(batch)
		if err := st.Send(batch); err != nil {
			return err
		}
		metas <- sendMeta{t0: t0, n: n}
		reqs++
		batch = batch[:0]
		return nil
	}
	var sendErr error
	for sendErr == nil {
		t, ok := s.Next()
		if !ok {
			break
		}
		batch = append(batch, correlated.Tuple{X: t.X, Y: t.Y, W: 1})
		if len(batch) == cfg.chunk {
			sendErr = flush()
		}
	}
	if sendErr == nil && len(batch) > 0 {
		sendErr = flush()
	}
	// Close waits for every in-flight ack, then the ack channel closes
	// and the drain reports the first non-OK outcome.
	closeErr := st.Close()
	drainErr := <-drained
	switch {
	case sendErr != nil:
		err = sendErr
	case drainErr != nil:
		err = drainErr
	case closeErr != nil:
		err = closeErr
	}
	return lats, reqs, nAcked, err
}

// ingest drives client i's work over the configured transport: its share
// of the tuples under -tenant or, with -tenants, the tenants t ≡ i (mod
// clients), each its own substream over its own tenant-scoped connection,
// one after the other — so the daemon sees cfg.clients different tenants
// ingesting at any moment, rotating through all cfg.tenants over the run.
func ingest(ctx context.Context, cfg *loadConfig, i int) (lats []time.Duration, reqs, nAcked int, err error) {
	drive := httpDrive
	if cfg.streamAddr != "" {
		drive = streamDrive
	}
	if cfg.tenants == 1 {
		s, err := substream(cfg, i, cfg.clients)
		if err != nil {
			return nil, 0, 0, err
		}
		return drive(ctx, cfg, s, cfg.tenant)
	}
	for t := i; t < cfg.tenants; t += cfg.clients {
		s, err := substream(cfg, t, cfg.tenants)
		if err != nil {
			return lats, reqs, nAcked, err
		}
		l, r, a, err := drive(ctx, cfg, s, tenantName(t))
		lats = append(lats, l...)
		reqs += r
		nAcked += a
		if err != nil {
			return lats, reqs, nAcked, fmt.Errorf("tenant %s: %w", tenantName(t), err)
		}
	}
	return lats, reqs, nAcked, nil
}

// httpDrive is streamDrive's HTTP analogue: chunked AddBatch calls on a
// tenant-scoped client, one request's latency per chunk.
func httpDrive(ctx context.Context, cfg *loadConfig, s gen.Stream, tenant string) (lats []time.Duration, reqs, nAcked int, err error) {
	cl := loadClient(cfg, tenant)
	lats = make([]time.Duration, 0, s.Len()/cfg.chunk+1)
	batch := make([]correlated.Tuple, 0, cfg.chunk)
	flush := func() error {
		t0 := time.Now()
		if err := cl.AddBatch(ctx, batch); err != nil {
			return err
		}
		lats = append(lats, time.Since(t0))
		reqs++
		nAcked += len(batch)
		batch = batch[:0]
		return nil
	}
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		batch = append(batch, correlated.Tuple{X: t.X, Y: t.Y, W: 1})
		if len(batch) == cfg.chunk {
			if err := flush(); err != nil {
				return lats, reqs, nAcked, err
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return lats, reqs, nAcked, err
		}
	}
	return lats, reqs, nAcked, nil
}

// runLoad drives the concurrent load and prints (and optionally writes)
// the report. Any client error aborts the whole run.
func runLoad(cfg *loadConfig) error {
	ctx := context.Background()
	if err := loadClient(cfg, cfg.tenant).Healthy(ctx); err != nil {
		return fmt.Errorf("target %s not healthy: %w", cfg.target, err)
	}

	var (
		ingestWG   sync.WaitGroup
		mu         sync.Mutex
		firstErr   error
		ingestLats = make([][]time.Duration, cfg.clients)
		acked      atomic.Int64
		requests   atomic.Int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	for i := 0; i < cfg.clients; i++ {
		ingestWG.Add(1)
		go func(i int) {
			defer ingestWG.Done()
			lats, reqs, nAcked, err := ingest(ctx, cfg, i)
			if err != nil {
				fail(fmt.Errorf("client %d: %w", i, err))
				return
			}
			requests.Add(int64(reqs))
			acked.Add(int64(nAcked))
			ingestLats[i] = lats
		}(i)
	}
	ingestWG.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	var allIngest []time.Duration
	for _, l := range ingestLats {
		allIngest = append(allIngest, l...)
	}
	sort.Slice(allIngest, func(i, j int) bool { return allIngest[i] < allIngest[j] })

	rep := loadReport{
		Target:    cfg.target,
		Transport: cfg.transport(),
		Dataset:   cfg.dataset,
		Tuples:    cfg.n,
		Chunk:     cfg.chunk,
		Clients:   cfg.clients,
		Seconds:   elapsed.Seconds(),

		IngestRequests: int(requests.Load()),
		AckedTuples:    int(acked.Load()),
		IngestReqSec:   float64(requests.Load()) / elapsed.Seconds(),
		AckedTuplesSec: float64(acked.Load()) / elapsed.Seconds(),
		IngestP50Ms:    percentileMs(allIngest, 50),
		IngestP99Ms:    percentileMs(allIngest, 99),

		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
	if cfg.tenants > 1 {
		rep.Tenants = cfg.tenants
	}
	// Attach the server's stage breakdown so the load report carries
	// where the acknowledged latency went. Best-effort: a stats failure
	// degrades the report, never the run.
	if st, err := loadClient(cfg, cfg.tenant).Stats(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "corrgen load: stats fetch failed (no stage breakdown): %v\n", err)
	} else {
		rep.Stages = st.PipelineStages
	}

	fmt.Fprintf(os.Stderr,
		"corrgen load (%s): %d clients acked %d tuples in %d requests over %v (%.0f req/s, %.0f tuples/s, ingest p50 %.2fms p99 %.2fms)\n",
		rep.Transport, rep.Clients, rep.AckedTuples, rep.IngestRequests, elapsed.Round(time.Millisecond),
		rep.IngestReqSec, rep.AckedTuplesSec, rep.IngestP50Ms, rep.IngestP99Ms)
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "corrgen load: wrote %s\n", cfg.jsonPath)
	}
	return nil
}
