// Package shard runs P correlated-F2 summaries on P worker goroutines
// and answers queries by merging them. It exists only because
// benchmarks/corrdbench's per-layer ledger measures it, and ROADMAP item 2
// deletes it once that ledger stops importing it. New code wants one root
// summary per process, with Merge/MergeMarshaled for site images.
//
// Every shard owns a summary created from the same Options (hence the
// same seeded hash functions), tuples are routed round-robin and handed
// over in recycled batches, each worker drains its channel through the
// summary's amortized AddBatch path, and a query reads a summary that
// merges all shards. Because the summaries merge linearly, the engine
// inherits the structure's (Eps, Delta) guarantees with the k-site
// caveat documented on F2Summary.Merge (k = number of shards).
//
// # Concurrency contract
//
// The methods of Sharded are *not* safe for concurrent use: one
// goroutine drives AddBatch/Flush/RefreshCached/MarshalMerged/Close, and
// the parallelism lives inside (P workers plus the driver pipeline).
// CachedQueryLEBatch is the exception: it may run beside the driver's
// ingest, serialized only against RefreshCached.
//
// # Error model
//
// Ingest is asynchronous: a tuple that fails inside a worker (only
// possible when it bypassed the engine's own validation) surfaces at the
// next synchronization point — Flush, RefreshCached, MarshalMerged or
// Close — as the first error any worker encountered. Tuples the engine
// can validate synchronously (y > YMax, negative weight) are rejected
// immediately and never reach a worker.
package shard

import (
	"errors"
	"fmt"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/dyadic"
)

// ErrClosed is returned by every driver method of a Sharded engine after
// Close.
var ErrClosed = errors.New("shard: engine is closed")

// batchSize is the per-shard handoff granularity: large enough to
// amortize the channel handoff and the per-group leaf routing inside
// AddBatch, small enough to keep per-shard buffering (4 in-flight
// batches) in the L2 cache.
const batchSize = 2048

// spareBuffers is the number of extra batch buffers cycling per worker
// beyond the one the driver is filling; it bounds in-flight memory and
// lets the driver run ahead of a briefly busy worker.
const spareBuffers = 3

// Sharded fans ingest across P worker-owned F2 summaries and answers
// queries from their merge. Create one with NewF2; always Close it to
// release the workers.
type Sharded struct {
	workers []*worker
	scratch *correlated.F2Summary // merge target behind MarshalMerged
	// cached is the merged summary RefreshCached rebuilds and
	// CachedQueryLEBatch reads; no other driver path touches it, so
	// queries can read it while the driver keeps ingesting.
	cached *correlated.F2Summary
	ack    chan struct{}
	next   int // round-robin routing cursor
	ymax   uint64
	err    error // sticky first worker error
	closed bool
}

// worker is one shard: a goroutine draining batches into its summary.
type worker struct {
	sum     *correlated.F2Summary
	in      chan job
	free    chan []correlated.Tuple
	pending []correlated.Tuple // filled by the driver goroutine
	done    chan struct{}
	err     error // first AddBatch error; read by the driver after an ack
}

// job is one channel handoff: a batch to ingest, an ack to signal that
// everything sent before it has been processed, or both.
type job struct {
	batch []correlated.Tuple
	ack   chan<- struct{}
}

// NewF2 builds a sharded correlated-F2 engine with `shards` workers:
// every shard, the scratch and the cached summary share o (and therefore
// the seeded hash functions that make the shard summaries mergeable).
func NewF2(o correlated.Options, shards int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shards must be >= 1, got %d", shards)
	}
	e := &Sharded{
		ack:  make(chan struct{}, shards),
		ymax: dyadic.RoundYMax(o.YMax),
	}
	var err error
	if e.scratch, err = correlated.NewF2Summary(o); err != nil {
		return nil, err
	}
	if e.cached, err = correlated.NewF2Summary(o); err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		w := &worker{
			in:      make(chan job, spareBuffers+1),
			free:    make(chan []correlated.Tuple, spareBuffers+1),
			pending: make([]correlated.Tuple, 0, batchSize),
			done:    make(chan struct{}),
		}
		if w.sum, err = correlated.NewF2Summary(o); err != nil {
			e.stop()
			return nil, err
		}
		for j := 0; j < spareBuffers; j++ {
			w.free <- make([]correlated.Tuple, 0, batchSize)
		}
		e.workers = append(e.workers, w)
		go w.run()
	}
	return e, nil
}

// run is the worker loop: drain batches through the summary's amortized
// batch path, recycle buffers, honour ack requests in FIFO order.
func (w *worker) run() {
	defer close(w.done)
	for jb := range w.in {
		if jb.batch != nil {
			if err := w.sum.AddBatch(jb.batch); err != nil && w.err == nil {
				w.err = err
			}
			w.free <- jb.batch[:0]
		}
		if jb.ack != nil {
			jb.ack <- struct{}{}
		}
	}
}

// AddBatch inserts a batch of tuples (zero weights count as 1), routed
// round-robin across the shards. The whole batch is validated before any
// tuple is routed, matching the unsharded AddBatch contract: a rejected
// batch has ingested nothing and may be corrected and retried. The slice
// is not retained. Per tuple this is one append into a preallocated
// buffer and, once per batchSize tuples, a channel handoff; it performs
// no allocation and takes no lock.
func (e *Sharded) AddBatch(batch []correlated.Tuple) error {
	if e.closed {
		return ErrClosed
	}
	for i := range batch {
		if batch[i].Y > e.ymax {
			return fmt.Errorf("shard: y = %d exceeds YMax = %d", batch[i].Y, e.ymax)
		}
		if batch[i].W < 0 {
			return fmt.Errorf("shard: weight must be positive, got %d", batch[i].W)
		}
	}
	for _, t := range batch {
		w := t.W
		if w == 0 {
			w = 1
		}
		e.addRouted(t.X, t.Y, w)
	}
	return nil
}

// addRouted appends an already-validated tuple to the next shard's
// pending buffer, handing the buffer off when full.
func (e *Sharded) addRouted(x, y uint64, w int64) {
	wk := e.workers[e.next]
	if e.next++; e.next == len(e.workers) {
		e.next = 0
	}
	wk.pending = append(wk.pending, correlated.Tuple{X: x, Y: y, W: w})
	if len(wk.pending) == cap(wk.pending) {
		e.handoff(wk)
	}
}

// handoff ships wk's pending batch to its worker and takes a recycled
// buffer; it blocks only when all of the shard's buffers are in flight.
func (e *Sharded) handoff(wk *worker) {
	wk.in <- job{batch: wk.pending}
	wk.pending = <-wk.free
}

// Flush pushes every buffered tuple to the workers and blocks until all
// of them have been ingested, then reports the first error any worker
// has encountered since the engine was created.
func (e *Sharded) Flush() error { return e.barrier() }

// barrier drains all workers and collects their sticky errors.
func (e *Sharded) barrier() error {
	if e.closed {
		return ErrClosed
	}
	for _, wk := range e.workers {
		if len(wk.pending) > 0 {
			e.handoff(wk)
		}
		wk.in <- job{ack: e.ack}
	}
	for range e.workers {
		<-e.ack
	}
	// The acks order the workers' error writes before these reads.
	for _, wk := range e.workers {
		if wk.err != nil && e.err == nil {
			e.err = wk.err
		}
	}
	return e.err
}

// RefreshCached drains the workers and rebuilds the cached merged
// summary CachedQueryLEBatch answers from. It is a driver-side call (it
// barriers the workers) and must additionally be serialized against
// CachedQueryLEBatch; the caller's epoch cache provides both.
func (e *Sharded) RefreshCached() error { return e.mergeInto(e.cached) }

// CachedQueryLEBatch answers AGG{x : y <= c} for every cutoff from the
// summary the last RefreshCached built, writing estimates into out
// (len(out) must equal len(cutoffs)). It performs no barrier and no
// merge — it never touches the workers — so it is safe to run while the
// driver ingests, provided it is serialized against RefreshCached.
// Before the first RefreshCached it answers over the empty summary.
func (e *Sharded) CachedQueryLEBatch(cutoffs []uint64, out []float64) error {
	for i, c := range cutoffs {
		v, err := e.cached.QueryLE(c)
		if err != nil {
			return fmt.Errorf("c=%d: %w", c, err)
		}
		out[i] = v
	}
	return nil
}

// MarshalMerged returns the single-summary wire image of the merge of
// every shard: exactly what F2Summary.MarshalBinary produces, so it can
// be restored with UnmarshalBinary or folded into an identically
// configured summary with MergeMarshaled.
func (e *Sharded) MarshalMerged() ([]byte, error) {
	if err := e.mergeInto(e.scratch); err != nil {
		return nil, err
	}
	return e.scratch.MarshalBinary()
}

// mergeInto drains the workers and rebuilds dst as the merge of every
// shard. dst is reset, not reallocated, so steady-state calls reuse its
// sketch pools.
func (e *Sharded) mergeInto(dst *correlated.F2Summary) error {
	if err := e.barrier(); err != nil {
		return err
	}
	dst.Reset()
	for _, wk := range e.workers {
		if err := dst.Merge(wk.sum); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes, stops the workers, and returns the first ingest error.
// The engine is unusable afterwards; Close is not idempotent (a second
// call reports ErrClosed, like every driver method).
func (e *Sharded) Close() error {
	err := e.barrier()
	if errors.Is(err, ErrClosed) {
		return err
	}
	e.stop()
	return err
}

// stop shuts the worker goroutines down (idempotent, also used on
// constructor failure).
func (e *Sharded) stop() {
	if e.closed {
		return
	}
	e.closed = true
	for _, wk := range e.workers {
		close(wk.in)
	}
	for _, wk := range e.workers {
		<-wk.done
	}
}
