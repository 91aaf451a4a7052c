// Package correlated implements streaming estimation of correlated
// aggregates, reproducing Tirthapura and Woodruff, "A General Method for
// Estimating Correlated Aggregates Over a Data Stream" (ICDE 2012;
// Algorithmica 73(2), 2015).
//
// On a stream of tuples (x, y) — x an item identifier, y a numeric
// attribute — a correlated aggregate query applies a selection predicate
// on y first and an aggregation on x second:
//
//	C(σ, AGG, S) = AGG{ x_i | σ(y_i) }
//
// The predicate is of the form y <= c (or y >= c), with the cutoff c
// supplied only at query time. That late binding is the point: one small
// summary, built online in a single pass, supports interactive drill-down
// ("aggregate the flows larger than the median; now only the top five
// percent") over cutoffs chosen after the data has gone by.
//
// # Summaries
//
//   - F2Summary, FkSummary — correlated frequency moments via the paper's
//     general reduction (Section 2) over AMS/CountSketch and
//     Indyk–Woodruff sketches.
//   - SumSummary, CountSummary — correlated SUM and COUNT through the same
//     reduction with exact counter "sketches".
//   - F0Summary — correlated distinct counting (Section 3.2) by distinct
//     sampling with y-priority eviction; also answers rarity queries
//     (Section 3.3).
//   - HeavyHittersSummary — correlated F2 heavy hitters (Section 3.3).
//   - Quantiles — a Greenwald–Khanna whole-stream quantile summary over
//     the y dimension, the companion structure for drill-down queries.
//   - CountWindow, F2Window, F0Window — sliding-window aggregation over
//     asynchronous (out-of-order) streams via the reduction of
//     Section 1.1.
//   - RunMultipass and the GREATER-THAN helpers — the turnstile
//     (positive and negative weights) results of Section 4.
//
// # Paper-to-package map
//
// The implementation follows the paper's structure closely:
//
//	§2 general reduction      internal/core     level/bucket trees, Algorithms 1–3,
//	                                            hash-once ingest, AddBatch, Merge
//	§3.1 F2 and Fk sketches   internal/sketch   CountSketch/AMS (Thorup–Zhang layout),
//	                                            Indyk–Woodruff level sets, pooling,
//	                                            the SlotMaker/SlotAdder fast path
//	§3.2 distinct counts      internal/corrf0   distinct sampling with y-priority
//	                                            eviction and per-level watermarks
//	§3.3 heavy hitters        internal/heavy    candidate tracking over the §2 sketch
//	§1.1 sliding windows      internal/window   timestamp-as-y reduction
//	§4 turnstile/multipass    internal/turnstile  MULTIPASS, GREATER-THAN bounds
//	distributed model         shard             P worker-owned summaries, channel-fed
//	                                            ingest, merge-then-query coordinator,
//	                                            engine snapshots and push images (a
//	                                            library feature; corrd does not use it)
//	                          service, client   corrd, the site/coordinator network
//	                                            daemon (cmd/corrd): HTTP ingest and
//	                                            wire-image pushes, snapshot
//	                                            durability, Prometheus metrics, and
//	                                            the Go client driving it
//	concurrent serving        service           group-commit ingest pipeline (one
//	                                            fsync, and one sort and one AddBatch
//	                                            per touched tenant, per group of
//	                                            concurrent requests; the committer
//	                                            sorts, the log holds the sorted
//	                                            batch and AddBatch, finding it
//	                                            sorted, skips its own; GE applied
//	                                            beside LE on a second goroutine)
//	                                            and the memoized
//	                                            query path ((op, cutoff) answers
//	                                            evaluated on the live summary under
//	                                            the driver lock, then served
//	                                            lock-free until the tenant's state
//	                                            moves; -query-max-stale bounds the
//	                                            evaluation rate)
//	streaming ingest          service, client   persistent length-framed ingest
//	                                            transport (corrd -stream-addr):
//	                                            counted tupleio frames pipelined
//	                                            ahead of per-frame acks carrying
//	                                            the WAL group LSN, pooled
//	                                            zero-alloc server decode, and the
//	                                            client.DialStream handle driving
//	                                            it (corrgen -stream for load)
//	multi-tenancy             service, client   keyed namespaces (?tenant=,
//	                                            keyed stream frames): one summary
//	                                            per tenant behind the shared WAL
//	                                            and group-commit pipeline,
//	                                            tenant-tagged log records and
//	                                            snapshot framing for per-tenant
//	                                            crash-exact recovery, count and
//	                                            memory governance caps (429/413),
//	                                            idle-tenant spill to compact
//	                                            images with restore-on-touch
//	observability             service           pipeline-stage tracing (per-stage
//	                                            latency histograms over the commit
//	                                            pipeline: enqueue, apply, append,
//	                                            fsync, ack — in /metrics, /v1/stats,
//	                                            and corrgen load reports), the
//	                                            ring-buffered JSON access log with
//	                                            X-Request-ID accept/mint/echo
//	                                            (corrd -access-log, -slow-request),
//	                                            Go runtime metrics and build info
//	                                            in the exposition, and the opt-in
//	                                            pprof listener (-debug-addr)
//	replication & HA          service, client,  WAL-shipped warm standby (corrd
//	                          internal/replica  -role=replica -primary ADDR): the
//	                                            primary tails its durable log over
//	                                            the stream listener (records,
//	                                            heartbeats, snapshot re-seeds for
//	                                            pruned positions); the replica
//	                                            replays through the crash-recovery
//	                                            grammar and serves memoized
//	                                            reads, rejecting writes with 503;
//	                                            POST /v1/promote (admin-gated) or
//	                                            heartbeat-loss auto-promotion seals
//	                                            the applied LSN and flips the node
//	                                            writable, byte-identical to a
//	                                            crash-free primary at the seal;
//	                                            the Go client fails reads over
//	                                            and redirects writes
//	durable ingest            internal/wal      segmented CRC32C write-ahead log
//	                                            under the daemon: log-before-ack,
//	                                            one keyed record per commit group
//	                                            (seven record types behind one
//	                                            versioned segment header), fsync
//	                                            policies, torn-tail recovery,
//	                                            checkpoint pruning — restart
//	                                            replays to crash-exact state,
//	                                            concurrent ingest included
//	robustness                service,          degraded-mode state machine
//	                          internal/fault    (service/health.go: healthy →
//	                                            degraded → recovering; writes 503/
//	                                            AckDegraded while reads keep
//	                                            serving, /readyz for LB drain,
//	                                            probe loop + POST /v1/recover), a
//	                                            failed group fsync rewinds the
//	                                            unacked log suffix, overload
//	                                            shedding (-ingest-queue-max → 429/
//	                                            AckBusy with EWMA-priced
//	                                            Retry-After), snapshot retention
//	                                            with corrupt-newest fallback
//	                                            (-snapshot-keep), and the fault-
//	                                            injection harness behind it all:
//	                                            an error-plan DSL over a swappable
//	                                            filesystem (corrd -fault-plan,
//	                                            POST /v1/fault) driving the chaos
//	                                            suite's byte-identity proofs
//	support                   internal/dyadic, internal/hash, internal/quantile,
//	                          internal/gen, internal/exact, internal/tupleio —
//	                          interval arithmetic, seeded universal hashing, GK
//	                          quantiles, generators, brute-force references, and
//	                          the tuple wire codec
//
// # Accuracy guarantees
//
// Options.Eps and Options.Delta carry the paper's (ε, δ) contract: each
// query's estimate is within a (1 ± ε) factor of the true aggregate over
// the selected substream with probability at least 1 − δ (per query), with
// space polylogarithmic in the stream length. The constants follow the
// paper's own experimental configuration rather than the worst-case proofs
// (set Options.StrictTheory for the proof constants where feasible —
// practical only for SUM/COUNT). A query can also fail explicitly with
// ErrNoLevel — the FAIL output of Algorithm 3 — with probability at most δ.
//
// # Space accounting
//
// Space reports stored counters and tuples, the metric of the paper's
// figures. For the CountSketch-backed summaries (F2, Fk, heavy hitters)
// it counts what each bucket's sketch actually holds. A sketch has two
// forms. It starts in the items form, keeping the distinct (x, weight)
// pairs it has absorbed at two words each — and answering exactly, so a
// small bucket closes on its true F2 — and promotes itself once to the
// full width × depth counter array, by hashing its pairs in, when it would
// hold more than a quarter of that many pairs; most buckets of the
// reduction hold few distinct items and never get there. A promoted sketch
// holds exactly the counters it would have held had it been dense from the
// start. The marshaled image records the form, so Space is the same before
// and after a MarshalBinary → UnmarshalBinary round trip and marshaling
// changes nothing. In memory both forms are stored as narrow as what they
// hold allows: a table slot is four bytes — identifier in 24 bits, weight
// in 8 — until a pair needs eight, then sixteen, a dense array stores its
// counters at one byte each and widens itself (to two, then eight)
// the first time a value would not fit, and the table of a bucket that has
// closed — which splits on the next arrival and is not written by ingest
// again — is cut to exactly the pairs it holds. That changes no answer, no
// image byte and not Space, which keeps counting two words a pair and one a
// counter. A table or array that a sketch grows out of, or is discarded
// with, is not left to the garbage collector: the summary's sketch maker
// keeps it, zeroed, on a short free list for the next sketch that needs its
// size, so ingest allocates little more than the summary ends up holding.
// Occupancy breaks Space down level by level and reports the bytes behind
// each level's counters, by form, how many of the tables' are in closed
// buckets, and — on the first row — the bytes waiting on those free lists,
// which stand behind no counter. Footprint is the same accounting as three
// totals — bytes held, bytes pooled, and the bytes of the bucket and sketch
// structs around them, which Occupancy does not count — and for the F2
// summary it is read from counts the maker keeps as tables and arrays change
// hands, so it costs nothing to ask after every batch: corrd's per-tenant
// memory cap and its memory ledger run on it.
//
// # Mergeability and distribution
//
// Summaries built from identical Options (Seed included: it regenerates
// the hash functions) are mergeable — the paper's distributed model, where
// each site summarizes its local substream and a coordinator combines site
// summaries to answer queries over the union. Merge folds a live summary
// into another; MergeMarshaled folds the serialized wire form directly,
// without materializing an intermediate summary. Incompatible summaries
// are rejected with an *IncompatibleError (matching ErrIncompatible)
// naming the differing option. Merging k site summaries keeps every
// structural guarantee but scales the bucket-straddling error term
// (Lemma 4) by up to k; use Eps/k at the sites when a strict ε must
// survive a k-way merge. The shard subpackage builds a parallel ingest
// engine on exactly this merge layer, and the service and client
// subpackages (with cmd/corrd) expose the whole model over HTTP: remote
// sites forward their write-ahead logs (so the coordinator keeps one
// summary per tenant and merges nothing) or push marshaled summary images,
// the coordinator daemon serves queries from that state, and snapshots make
// the serving tier restartable.
//
// # Concurrency
//
// Summaries are not safe for concurrent use. Both ingestion and queries
// mutate internal state (sketch free lists and scratch buffers are pooled
// per summary for allocation-free steady-state operation), so all access —
// including read-only queries — must be serialized by the caller. One
// summary already uses a second core on its own: with Predicate Both, an
// AddBatch of 64 tuples or more applies the mirrored GE structure on a
// goroutine of its own beside LE (the two share no state, so the result is
// bit-identical to applying them in turn) and returns when both are done.
// To spread one stream over more cores than that, use the shard
// subpackage, which owns one summary per worker goroutine and merges at
// query time — at close to one summary's memory per worker.
//
// # Quick example
//
//	s, _ := correlated.NewF2Summary(correlated.Options{
//		Eps: 0.2, Delta: 0.1, YMax: 1 << 20, MaxStreamLen: 1 << 24,
//	})
//	for _, t := range tuples {
//		_ = s.Add(t.X, t.Y)
//	}
//	est, _ := s.QueryLE(cutoff) // F2 of {x : y <= cutoff}
//
// All summaries are deterministic in their Seed option and built only on
// the Go standard library.
package correlated
