// Package client is the Go client for the corrd network service
// (cmd/corrd): batched tuple ingest, site→coordinator log forwarding, and
// correlated-aggregate queries over plain HTTP with no dependencies beyond
// the standard library.
//
// A Client is safe for concurrent use; it reuses connections through a
// shared http.Transport and recycles its encode buffers through a pool.
// Large batches are split into chunks (WithChunkSize) so a single
// request body stays bounded no matter how much the caller hands over.
package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/tupleio"
)

// DefaultChunkSize is the maximum tuples encoded into one ingest
// request: large enough to amortize the HTTP round trip, small enough
// to stay far below the server's default body limit.
const DefaultChunkSize = 16384

// APIError is a non-2xx response from the service, carrying the
// server's JSON error message.
type APIError struct {
	Status  int    // HTTP status code
	Message string // server-provided description
	// RetryAfter is the server's Retry-After hint (zero when absent).
	// corrd sends it on 429 overload sheds and 503 degraded rejections —
	// both definite refusals, applied nowhere — and the retry loop
	// honors it as a backoff floor.
	RetryAfter time.Duration
	// Code names a refusal a client may act on, when the server's error
	// body names one (CodeTooLarge, CodeGap); "" otherwise.
	Code string
	// Mark is, on a forward refused as a gap (CodeGap), the coordinator's
	// mark for the site: the records to send start after it.
	Mark uint64
}

// CodeTooLarge is the Code of a 413 refusing a request larger than the
// server takes: a body past its -max-body-bytes, or a forward that decodes
// to more tuples than one decode may hold. A smaller request may go.
const CodeTooLarge = "too_large"

// CodeGap is the Code of a 409 refusing a forward whose records follow a
// record the coordinator does not hold: its mark for the site is behind the
// forward's prev. The site sends again from the mark.
const CodeGap = "gap"

func (e *APIError) Error() string {
	return fmt.Sprintf("corrd: %s (HTTP %d)", e.Message, e.Status)
}

// Stats is the /v1/stats response (also what the service renders).
type Stats struct {
	Role           string `json:"role"`
	Aggregate      string `json:"aggregate"`
	Count          uint64 `json:"count"`
	Space          int64  `json:"space"`
	TuplesIngested uint64 `json:"tuples_ingested"`
	QueriesServed  uint64 `json:"queries_served"`

	// Group commit and answer memo: requests/groups is the live fsync
	// amortization factor, hits/(hits+rebuilds) the fraction of query
	// requests served wholly from memoized answers, without the
	// server's driver lock.
	IngestGroups       uint64 `json:"ingest_groups,omitempty"`
	IngestGroupReqs    uint64 `json:"ingest_group_requests,omitempty"`
	QueryCacheHits     uint64 `json:"query_cache_hits,omitempty"`
	QueryCacheRebuilds uint64 `json:"query_cache_rebuilds,omitempty"`

	// Streaming-ingest transport counters (present when the server runs
	// with -stream-addr and has seen stream traffic).
	StreamConns      int64   `json:"stream_conns,omitempty"`
	StreamConnsTotal uint64  `json:"stream_conns_total,omitempty"`
	StreamFrames     uint64  `json:"stream_frames,omitempty"`
	StreamTuples     uint64  `json:"stream_tuples,omitempty"`
	Restored         bool    `json:"restored_from_snapshot"`
	LastSnapshot     int64   `json:"last_snapshot_unix"`
	UptimeSeconds    float64 `json:"uptime_seconds"`

	// The server's write-ahead log.
	WALFsyncs        uint64  `json:"wal_fsyncs,omitempty"`
	WALSegments      int64   `json:"wal_segments,omitempty"`
	WALAppendedBytes uint64  `json:"wal_appended_bytes,omitempty"`
	WALLastLSN       uint64  `json:"wal_last_lsn,omitempty"`
	WALReplayRecords uint64  `json:"wal_replay_records,omitempty"`
	WALReplaySeconds float64 `json:"wal_replay_seconds,omitempty"`

	// A site's forwarding: the highest LSN of its log every target has
	// confirmed (the log holds the rest, and prunes nothing past it), and
	// each target's refusal while one stops the records behind it, joined
	// by "; ".
	ForwardAckedLSN uint64 `json:"forward_acked_lsn,omitempty"`
	ForwardStalled  string `json:"forward_stalled,omitempty"`

	// Multi-tenant registry aggregates; the engine fields above (count,
	// space, shards) always describe one tenant — the default without
	// ?tenant=, the named one with it.
	Tenants     int   `json:"tenants,omitempty"`
	TenantsLive int   `json:"tenants_live,omitempty"`
	TenantBytes int64 `json:"tenant_bytes,omitempty"`

	// Per-tenant view (?tenant=): which namespace the engine fields and
	// the Tenant* counters below describe. TenantSpills/TenantRestores
	// are server-wide without ?tenant=, that tenant's with it.
	Tenant               string `json:"tenant,omitempty"`
	TenantTuplesIngested uint64 `json:"tenant_tuples_ingested,omitempty"`
	TenantQueriesServed  uint64 `json:"tenant_queries_served,omitempty"`
	TenantSpills         uint64 `json:"tenant_spills,omitempty"`
	TenantRestores       uint64 `json:"tenant_restores,omitempty"`

	// Pipeline-stage latency breakdown, keyed by stage name (enqueue,
	// apply, append, fsync, ack). Present once the server has committed
	// at least one ingest; stages that never fired are omitted.
	PipelineStages map[string]StageStats `json:"pipeline_stages,omitempty"`

	// Promoted reports that a standby (corrd -standby), which reports its
	// role as replica until then, has been promoted.
	Promoted bool `json:"promoted,omitempty"`

	// Health is the degraded-mode state machine's position ("healthy",
	// "degraded", "recovering"); DegradedSeconds the cumulative time
	// spent out of healthy.
	Health          string  `json:"health,omitempty"`
	DegradedSeconds float64 `json:"degraded_seconds,omitempty"`

	// Memory is the daemon's memory ledger; nil from a server that
	// predates it.
	Memory *Memory `json:"memory,omitempty"`
}

// Memory is the memory ledger of /v1/stats, in bytes: what the tenants'
// summaries keep, what the commit pipeline keeps, the Go runtime's own split
// of what it has mapped and the kernel's figure for the resident set — so
// that held + pooled + headers + spilled + pipeline can be read against the
// live heap, and the runtime's total against VmRSS, with each remainder
// printed.
type Memory struct {
	// What the summaries hold — every tenant's added up, or the named
	// tenant's with ?tenant=. Held is the tables and arrays of their sketches
	// at the widths they are stored at, Pooled what their makers' arenas map
	// beyond that — free blocks for the next sketch, chunk ends, size-class
	// rounding — and Arena what those arenas map, off the collected heap:
	// Held + Pooled for the F2 aggregate. Headers is what the summaries keep
	// on the heap: tree nodes, bucket words, sketch structs and their slabs'
	// spare slots. (The other aggregates keep no arena: Arena is 0, Held their
	// counters at a word each and Pooled their spare tree nodes, on the heap.)
	// All are zero for a spilled tenant, whose image is Spilled. TenantBytes,
	// the -max-tenant-bytes input, is held + pooled + headers + spilled as of
	// each tenant's last commit, spill or restore; a query since then has
	// moved bytes between a tenant's sketches and its arena, so the sum read
	// here can differ from it until that tenant's next commit.
	HeldBytes    int64 `json:"held_bytes"`
	PooledBytes  int64 `json:"pooled_bytes"`
	HeaderBytes  int64 `json:"header_bytes"`
	SpilledBytes int64 `json:"spilled_bytes"`
	ArenaBytes   int64 `json:"arena_bytes"`

	// The commit pipeline, process-wide: the committer's buffer a group's
	// members decode and sort in, and its record-encode scratch with the
	// log's frame buffer, which frames the record (capacities, the
	// committer's kept between groups up to 4 MiB each), and the buffers
	// the ingest members waiting in the commit queue arrived in — a queued
	// member is held as its bytes, a counted batch, not as tuples
	// (capacities).
	ApplyBufBytes     int64 `json:"apply_buf_bytes"`
	GroupBufBytes     int64 `json:"group_buf_bytes"`
	QueuedMemberBytes int64 `json:"queued_member_bytes"`

	// The Go runtime's split (runtime/metrics). HeapLive is what the last
	// collection found reachable and HeapGoal the size at which the next one
	// ends — their ratio is GOGC's headroom; HeapObjects is live objects and
	// garbage not yet swept, HeapUnused and HeapFree the free slots and idle
	// spans beyond them, HeapReleased what has gone back to the kernel.
	// Stacks, Metadata (spans, caches, GC bitmaps), Profiling and Other are
	// off the heap; Total is everything the runtime has mapped, released
	// included.
	HeapLiveBytes     int64 `json:"heap_live_bytes"`
	HeapGoalBytes     int64 `json:"heap_goal_bytes"`
	HeapObjectsBytes  int64 `json:"heap_objects_bytes"`
	HeapUnusedBytes   int64 `json:"heap_unused_bytes"`
	HeapFreeBytes     int64 `json:"heap_free_bytes"`
	HeapReleasedBytes int64 `json:"heap_released_bytes"`
	StacksBytes       int64 `json:"stacks_bytes"`
	MetadataBytes     int64 `json:"metadata_bytes"`
	ProfilingBytes    int64 `json:"profiling_bytes"`
	OtherBytes        int64 `json:"other_bytes"`
	TotalBytes        int64 `json:"total_bytes"`

	// The kernel's view (/proc/self/status; absent elsewhere): the resident
	// set, and the file-backed part of it — the binary's own pages.
	VmRSSBytes   int64 `json:"vm_rss_bytes,omitempty"`
	RssFileBytes int64 `json:"rss_file_bytes,omitempty"`

	// The remainders, always the whole process's. HeapUnaccounted is
	// HeapLive less what every tenant keeps on the heap (held + pooled +
	// headers − arena) and its spilled bytes, and less the pipeline's: request
	// and frame buffers the committer has taken or that wait in pools, answer
	// memos, connection state and what the log keeps beside its frame
	// buffer — and whatever was allocated since the last collection, so it
	// is exact only right after one. RSSUnaccounted is
	// VmRSS less the file-backed part, less Total − HeapReleased and less
	// every tenant's Arena: negative while the runtime or an arena holds pages
	// mapped and not yet touched, positive by the arenas of summaries dropped
	// and not yet collected.
	HeapUnaccountedBytes int64 `json:"heap_unaccounted_bytes"`
	RSSUnaccountedBytes  int64 `json:"rss_unaccounted_bytes,omitempty"`
}

// StageStats summarizes one commit-pipeline stage's latency histogram:
// how many times the stage ran and its mean, median, and tail cost in
// milliseconds. The full bucket data lives in the Prometheus exposition
// (corrd_pipeline_stage_seconds); this is the JSON-friendly digest the
// stats endpoint and the load generator's report carry.
// The observation count is deliberately not named "count" on the wire:
// the top-level Stats carries the engine tuple count under that key,
// and scripted consumers grep the flat JSON.
type StageStats struct {
	Count uint64  `json:"samples"`
	AvgMs float64 `json:"avg_ms"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// QueryResult is the /v1/query response for a single cutoff.
type QueryResult struct {
	Op       string  `json:"op"`
	C        uint64  `json:"c"`
	Estimate float64 `json:"estimate"`
}

// MultiQueryResult is the /v1/query response when the c parameter
// repeats: every cutoff answered over one engine barrier.
type MultiQueryResult struct {
	Op      string        `json:"op"`
	Results []QueryResult `json:"results"`
}

// forwardResult is the /v1/forward acknowledgement.
type forwardResult struct {
	Mark uint64 `json:"mark"`
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// custom transports, httptest clients).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithChunkSize caps tuples per ingest request; n < 1 is ignored.
func WithChunkSize(n int) Option {
	return func(c *Client) {
		if n >= 1 {
			c.chunk = n
		}
	}
}

// WithRetries sets how many times a request is retried after a
// transient transport error — the connection was refused, reset, or
// timed out before any HTTP response arrived — before the error is
// returned; n < 0 disables retries. The default is 3. Retries respect
// the request context and back off exponentially with jitter
// (WithRetryBackoff). Once a response status line has been received the
// request is never retried: every HTTP status (4xx and 5xx included) is
// the server speaking — for corrd a 503 is a semantic answer (the
// paper's FAIL, or shutdown) — and a body that dies mid-read may have
// already been applied, so replaying it could double-ingest.
//
// Promote narrows the policy further: it is strictly single-attempt —
// see its doc comment.
func WithRetries(n int) Option {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.retries = n
	}
}

// WithRetryBackoff sets the first retry delay and the cap it doubles
// toward. Defaults: 50ms base, 1s cap. Each delay is jittered uniformly
// over [base/2, base) so synchronized clients fan out.
func WithRetryBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithTenant scopes every request to one of the daemon's keyed
// namespaces: ingest addresses (and, subject to the server's
// caps, create) that tenant, queries, stats, and summaries read it. The
// default is the empty key — the default tenant, where a request that
// names no tenant lands.
func WithTenant(name string) Option {
	return func(c *Client) { c.tenant = name }
}

// WithReplicas names read replicas of the base server (base URLs like
// the primary's). With at least one replica configured, reads (query,
// stats, summary, health) fail over: the primary is tried first, and a
// transport error — or any 5xx, which a lone-server client would
// surface as the semantic answer it is — moves the read to the next
// base. Writes still go to the primary, but a 503 "read-only replica"
// rejection (the base has been demoted, or the deployment failed over
// behind this client's back) triggers one probe across all bases for a
// server currently accepting writes, and the write is redirected there.
func WithReplicas(bases ...string) Option {
	return func(c *Client) {
		for _, b := range bases {
			c.replicas = append(c.replicas, strings.TrimRight(b, "/"))
		}
	}
}

// WithAdminToken carries the server's -admin-token on admin calls
// (Promote). Without it Promote is rejected by any corrd whose
// operator configured a token.
func WithAdminToken(token string) Option {
	return func(c *Client) { c.adminToken = token }
}

// Client talks to one corrd base URL (plus optional read replicas).
type Client struct {
	base        string
	replicas    []string // WithReplicas: read-failover bases after base
	adminToken  string
	hc          *http.Client
	chunk       int
	tenant      string
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
	bufs        sync.Pool // *[]byte encode buffers
}

// endpoint joins a path (optionally already carrying a query string)
// with the client's tenant scope.
func (c *Client) endpoint(path string) string {
	if c.tenant == "" {
		return path
	}
	sep := "?"
	if strings.ContainsRune(path, '?') {
		sep = "&"
	}
	return path + sep + "tenant=" + url.QueryEscape(c.tenant)
}

// New builds a client for a base URL like "http://localhost:7070". The
// default http.Client has a 30s overall timeout; pass WithHTTPClient to
// change it.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		hc:          &http.Client{Timeout: 30 * time.Second},
		chunk:       DefaultChunkSize,
		retries:     3,
		backoffBase: 50 * time.Millisecond,
		backoffMax:  time.Second,
	}
	c.bufs.New = func() any { b := make([]byte, 0, 64<<10); return &b }
	for _, o := range opts {
		o(c)
	}
	return c
}

// AddBatch streams the batch to POST /v1/ingest in chunks of at most
// the configured chunk size. Chunks already accepted stay ingested when
// a later chunk fails; the returned error reports how many tuples made
// it. Zero weights count as 1, like the library's AddBatch.
func (c *Client) AddBatch(ctx context.Context, batch []correlated.Tuple) error {
	bp := c.bufs.Get().(*[]byte)
	defer c.bufs.Put(bp)
	for off := 0; off < len(batch); off += c.chunk {
		end := off + c.chunk
		if end > len(batch) {
			end = len(batch)
		}
		*bp = tupleio.AppendBatch((*bp)[:0], batch[off:end])
		if err := c.post(ctx, c.endpoint("/v1/ingest"), tupleio.ContentType, *bp, nil); err != nil {
			return fmt.Errorf("after %d of %d tuples: %w", off, len(batch), err)
		}
	}
	return nil
}

// Forward sends records of a site's write-ahead log to POST /v1/forward:
// site names the log's LSN space, format the log's format version (the
// grammar its records are in; a coordinator on another refuses them with
// a 400 naming both), prev the LSN of the site's last state-carrying record
// before the first of them, and records are AppendForwardRecord's output,
// in ascending LSN order. The coordinator commits them as one job,
// applying each into its one summary per tenant exactly as the site did,
// and answers with its mark for the site — the highest site LSN it holds.
// Records at or below the mark are dropped, and a record it refuses (a
// tenant cap) holds back the ones after it, so a mark short of the last
// record sent says where to send from again. A prev past the mark is a gap
// — the coordinator lacks records before these — and is refused whole with
// a 409 (IsGap), returning the mark to send from. Forward is idempotent, so
// it retries an ambiguous timeout like any request. cmd/corrd's site role
// forwards every state record of its log this way.
func (c *Client) Forward(ctx context.Context, site uint64, format uint8, prev uint64, records []byte) (mark uint64, err error) {
	var res forwardResult
	path := "/v1/forward?site=" + strconv.FormatUint(site, 16) + "&format=" + strconv.Itoa(int(format)) + "&prev=" + strconv.FormatUint(prev, 10)
	err = c.post(ctx, path, "application/octet-stream", records, &res)
	var ae *APIError
	if errors.As(err, &ae) && ae.Code == CodeGap {
		return ae.Mark, err
	}
	return res.Mark, err
}

// AppendForwardRecord appends one record of a site's log to a Forward
// body: uvarint(lsn), the WAL record type, uvarint(len(payload)), and the
// payload as logged.
func AppendForwardRecord(buf []byte, lsn uint64, typ uint8, payload []byte) []byte {
	buf = append(binary.AppendUvarint(buf, lsn), typ)
	return append(binary.AppendUvarint(buf, uint64(len(payload))), payload...)
}

// Promote asks the base server, a standby, to promote itself to primary
// (POST /v1/promote, gated by WithAdminToken). Promote is
// strictly single-attempt: a promote that succeeded server-side but lost its
// response would, on retry, surface a confusing 409, and blindly
// re-promoting during a failover window is how split-brain happens.
// A 409 means the server is not a standby (already primary).
func (c *Client) Promote(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/promote", nil)
	if err != nil {
		return err
	}
	if c.adminToken != "" {
		req.Header.Set("X-Admin-Token", c.adminToken)
	}
	return c.doOnce(req, nil)
}

// QueryLE estimates AGG{x : y <= cutoff} on the server.
func (c *Client) QueryLE(ctx context.Context, cutoff uint64) (float64, error) {
	return c.query(ctx, "le", cutoff)
}

// QueryGE estimates AGG{x : y >= cutoff} on the server.
func (c *Client) QueryGE(ctx context.Context, cutoff uint64) (float64, error) {
	return c.query(ctx, "ge", cutoff)
}

func (c *Client) query(ctx context.Context, op string, cutoff uint64) (float64, error) {
	var res QueryResult
	q := url.Values{"op": {op}, "c": {strconv.FormatUint(cutoff, 10)}}
	if err := c.get(ctx, c.endpoint("/v1/query?"+q.Encode()), &res); err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// QueryBatch answers every cutoff in one round trip (repeated c=
// parameters on GET /v1/query), in the order given — the drill-down
// loop's bulk path. op is "le" or "ge".
func (c *Client) QueryBatch(ctx context.Context, op string, cutoffs []uint64) ([]QueryResult, error) {
	if len(cutoffs) == 0 {
		return nil, nil
	}
	cs := make([]string, len(cutoffs))
	for i, cu := range cutoffs {
		cs[i] = strconv.FormatUint(cu, 10)
	}
	q := url.Values{"op": {op}, "c": cs}
	if len(cutoffs) == 1 {
		var res QueryResult
		if err := c.get(ctx, c.endpoint("/v1/query?"+q.Encode()), &res); err != nil {
			return nil, err
		}
		return []QueryResult{res}, nil
	}
	var res MultiQueryResult
	if err := c.get(ctx, c.endpoint("/v1/query?"+q.Encode()), &res); err != nil {
		return nil, err
	}
	return res.Results, nil
}

// Stats fetches the server's /v1/stats (the tenant's view when the
// client is tenant-scoped).
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var s Stats
	err := c.get(ctx, c.endpoint("/v1/stats"), &s)
	return s, err
}

// Summary fetches the tenant's summary image (GET /v1/summary), usable
// with UnmarshalBinary or MergeMarshaled on an identically configured
// summary.
func (c *Client) Summary(ctx context.Context) ([]byte, error) {
	bases := c.readBases()
	var lastErr error
	for i, b := range bases {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b+c.endpoint("/v1/summary"), nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				defer resp.Body.Close()
				return io.ReadAll(resp.Body)
			}
			err = apiError(resp)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		lastErr = err
		if i == len(bases)-1 || !failsOver(ctx, err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// Healthy checks /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	return c.get(ctx, "/healthz", nil)
}

func (c *Client) post(ctx context.Context, path, contentType string, body []byte, out any) error {
	err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		return req, nil
	}, out)
	if err != nil && len(c.replicas) > 0 && IsReadOnly(err) {
		// The base is (now) a replica: one probe across the configured
		// bases for a server accepting writes, then redirect. The 503
		// was a definite refusal, so re-sending cannot double-apply.
		if alt := c.findWritable(ctx); alt != "" {
			return c.postOnce(ctx, alt, path, contentType, body, out)
		}
	}
	return err
}

// postOnce is a single-attempt POST to an explicit base: no transport
// retries, for the redirect after a read-only refusal, which must not race
// a failover.
func (c *Client) postOnce(ctx context.Context, base, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	return c.doOnce(req, out)
}

// findWritable probes every configured base's /v1/stats and returns
// the first whose role currently accepts writes — the failover target
// after a 503 read-only rejection. Empty when none answers as primary.
func (c *Client) findWritable(ctx context.Context) string {
	for _, b := range append([]string{c.base}, c.replicas...) {
		var s Stats
		err := c.do(ctx, func() (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, b+"/v1/stats", nil)
		}, &s)
		if err == nil && s.Role != "replica" {
			return b
		}
	}
	return ""
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	bases := c.readBases()
	var err error
	for i, b := range bases {
		base := b
		err = c.do(ctx, func() (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		}, out)
		if err == nil || i == len(bases)-1 || !failsOver(ctx, err) {
			return err
		}
	}
	return err
}

// readBases is the read-failover order: the primary first, then every
// configured replica. A client without WithReplicas reads only from
// its base, exactly as before.
func (c *Client) readBases() []string {
	if len(c.replicas) == 0 {
		return []string{c.base}
	}
	return append([]string{c.base}, c.replicas...)
}

// failsOver reports whether a read error is worth moving to the next
// base: transport failures always, and — only in multi-base mode, which
// is the sole caller — any 5xx, since another server may well hold the
// same state and answer. 4xx is the request's own fault everywhere.
func failsOver(ctx context.Context, err error) bool {
	if isTransient(ctx, err) {
		return true
	}
	var ae *APIError
	return errors.As(err, &ae) && ae.Status >= 500
}

// do runs the request, retrying transient transport errors with
// exponential backoff and jitter. build constructs a fresh request per
// attempt (the body reader is consumed by each try).
//
// Retrying a POST is at-least-once, not exactly-once: a connection that
// dies after the server applied (and WAL-logged) the batch but before
// the response arrived looks identical to one refused outright, and the
// retry applies the batch again — on a durable server the duplicate
// survives restarts. Callers for whom a rare duplicate is worse than a
// surfaced error should set WithRetries(0) and handle the transport
// error themselves; no retry policy can distinguish the two cases
// without server-side request dedup.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error), out any) error {
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return err
		}
		err = c.doOnce(req, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller gave up: say so beside what the attempt saw, which
			// may be only the transport error the cancellation caused.
			return errors.Join(err, ctx.Err())
		}
		// A 429/503 carrying Retry-After is a definite refusal — the
		// server said so before applying anything, so retrying is safe.
		// The hint floors the delay:
		// the server knows its own recovery cadence better than our
		// exponential schedule does.
		if hint, ok := retryAfterHint(err); ok {
			if attempt >= c.retries {
				return err
			}
			if werr := c.backoffFloor(ctx, attempt, hint); werr != nil {
				return errors.Join(err, werr)
			}
			continue
		}
		if attempt >= c.retries || !isTransient(ctx, err) {
			return err
		}
		if werr := c.backoff(ctx, attempt); werr != nil {
			return errors.Join(err, werr)
		}
	}
}

// retryAfterHint extracts the server's Retry-After from an overload
// (429) or degraded (503) refusal. Only statuses corrd stamps the
// header on qualify: a read-only replica's 503 has no hint and must
// fail over, not spin here.
func retryAfterHint(err error) (time.Duration, bool) {
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 &&
		(ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable) {
		return ae.RetryAfter, true
	}
	return 0, false
}

// isTransient reports whether err is a transport-level failure worth
// retrying: the server never delivered a response, and the caller's
// context is still live. Liveness is judged from ctx itself, not from
// the error chain — an http.Client.Timeout expiring on a blackholed
// connection also surfaces as context.DeadlineExceeded, and that one IS
// the transient class retries exist for. Anything the server actually
// said — every *APIError, every status code — is final.
func isTransient(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false // the caller's own deadline or cancellation
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// backoff sleeps for the attempt's jittered exponential delay, or
// returns early when ctx is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	return c.backoffFloor(ctx, attempt, 0)
}

// backoffFloor is backoff with a minimum delay — the server's
// Retry-After hint outranks the exponential schedule but still gets
// the fan-out jitter on top.
func (c *Client) backoffFloor(ctx context.Context, attempt int, floor time.Duration) error {
	d := c.backoffBase << attempt
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	// Uniform jitter over [d/2, d): synchronized retriers fan out.
	if half := d / 2; half > 0 {
		d = half + rand.N(half)
	}
	if d < floor {
		d = floor
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) doOnce(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError turns a non-2xx response into an *APIError, preferring the
// server's JSON error body.
func apiError(resp *http.Response) error {
	var payload struct {
		Error string `json:"error"`
		Code  string `json:"code"`
		Mark  uint64 `json:"mark"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err := json.Unmarshal(body, &payload); err != nil || payload.Error == "" {
		payload.Error = strings.TrimSpace(string(body))
	}
	if payload.Error == "" {
		payload.Error = http.StatusText(resp.StatusCode)
	}
	ae := &APIError{Status: resp.StatusCode, Message: payload.Error, Code: payload.Code, Mark: payload.Mark}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// IsTenantRejected reports whether err is a governance cap refusing to
// create a tenant: the count cap (HTTP 429) or the memory cap (413).
func IsTenantRejected(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) &&
		(ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusRequestEntityTooLarge)
}

// IsTooLarge reports whether err is the server refusing a request as
// larger than it takes (CodeTooLarge): the same content may go in smaller
// requests.
func IsTooLarge(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeTooLarge
}

// IsGap reports whether err is a coordinator refusing a forward across a
// gap (CodeGap): Forward returned its mark, to send from.
func IsGap(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeGap
}

// IsReadOnly reports whether err is a read-only replica refusing a
// write (HTTP 503 with the replica rejection message): the write must
// go to the primary — or wait for this server's promotion.
func IsReadOnly(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable &&
		strings.Contains(ae.Message, "read-only replica")
}

// ErrBusy is the stream transport's AckBusy: the server shed the frame
// because its commit queue is full. Nothing was applied; back off and
// resend on the same connection.
var ErrBusy = errors.New("corrd: server overloaded, try again later")

// ErrDegraded is the stream transport's AckDegraded: the server's
// durability path is broken and writes are suspended until it recovers.
// Nothing was applied; the connection stays usable.
var ErrDegraded = errors.New("corrd: server degraded (writes suspended)")

// IsBusy reports whether err is the server shedding load — the stream's
// AckBusy or HTTP 429 from the bounded commit queue. The request was
// refused before anything was applied, so resending after the error's
// Retry-After (when it carries one) is always safe.
func IsBusy(err error) bool {
	if errors.Is(err, ErrBusy) {
		return true
	}
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests &&
		strings.Contains(ae.Message, "overload")
}

// IsDegraded reports whether err is a degraded server refusing writes —
// the stream's AckDegraded or HTTP 503 with the degraded message.
// Queries still work; writes should wait out Retry-After or go to
// another server.
func IsDegraded(err error) bool {
	if errors.Is(err, ErrDegraded) {
		return true
	}
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable &&
		strings.Contains(ae.Message, "degraded")
}
