package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
	"github.com/streamagg/correlated/shard"
)

const (
	ledgerTuples  = 200000 // how much of the workload's frame sequence each layer replays
	refreshEvery  = 50000  // shard.RefreshCached cadence in the replay, in tuples
	ledgerSyncs   = 400    // WAL records followed by a timed Sync
	ledgerQueries = 20     // timed repeats of each query call
	probeFrames   = 2000   // one-in-flight frames sent for the reconciliation row
)

// span is one timed call. Parent names the enclosing span; Req numbers
// the request or frame the call belonged to, so spans of one request
// share it across layers.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run is over.
type tracer struct {
	now   func() int64
	spans []span
}

// call runs fn inside a span and returns how long it took, in ns.
func (t *tracer) call(name, parent string, req int, fn func() error) (float64, error) {
	start := t.now()
	err := fn()
	end := t.now()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return float64(end - start), err
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replay regenerates the head of client 0's frame sequence and times fn
// on each frame inside a span, returning the total in ns. Every caller
// gets fresh frames, because AddBatch sorts a batch in place.
func (r *run) replay(tr *tracer, name string, fn func(k int, f []correlated.Tuple) error) (float64, error) {
	g := r.generator(0)
	f := make([]correlated.Tuple, r.w.frame)
	var total float64
	for k := 0; k < ledgerTuples/r.w.frame; k++ {
		for j := range f {
			t, _ := g.Next()
			f[j] = correlated.Tuple{X: t.X, Y: t.Y, W: 1}
		}
		ns, err := tr.call(name, "ledger", k, func() error { return fn(k, f) })
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// repeat times fn n times inside spans and returns the mean in ms.
func repeat(tr *tracer, name string, n int, fn func() error) (float64, error) {
	var total float64
	for i := 0; i < n; i++ {
		ns, err := tr.call(name, "ledger", 0, fn)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total / float64(n) / 1e6, nil
}

// queryEach asks query for every cutoff once.
func queryEach(query func(c uint64) (float64, error)) func() error {
	return func() error {
		for _, c := range cutoffs {
			if _, err := query(c); err != nil {
				return err
			}
		}
		return nil
	}
}

// ledger replays the workload's own frames through each layer's public
// functions, built from the daemon's Options, with a span around every
// call; then it sends one frame at a time to the live daemon and states
// how much of that round trip the layers account for.
func (r *run) ledger(ctx context.Context, tr *tracer, walDir string) error {
	begin := tr.now()
	defer func() { tr.spans = append(tr.spans, span{Name: "ledger", Start: begin, End: tr.now()}) }()
	nframes := float64(ledgerTuples / r.w.frame)
	tuples := nframes * float64(r.w.frame)

	// tupleio: the wire form of a frame, written and read back.
	var wire bytes.Buffer
	var payload, hdr []byte
	encNs, _ := r.replay(tr, "tupleio.encode", func(k int, f []correlated.Tuple) error {
		if r.w.tenants > 0 {
			payload = tupleio.AppendKeyedBatch(payload[:0], r.tenants[k%len(r.tenants)], f)
		} else {
			payload = tupleio.AppendCountedBatch(payload[:0], f)
		}
		hdr = tupleio.AppendFrameHeader(hdr[:0], uint64(k), uint32(len(payload)))
		wire.Write(hdr) // a memcpy the real client's bufio does too
		wire.Write(payload)
		return nil
	})
	fr := tupleio.NewFrameReader(&wire, 1<<20)
	var dst []correlated.Tuple
	decNs, err := r.replay(tr, "tupleio.decode", func(int, []correlated.Tuple) (err error) {
		if _, payload, err = fr.Next(payload); err != nil {
			return err
		}
		if r.w.tenants > 0 {
			_, dst, err = tupleio.DecodeKeyed(dst[:0], payload)
		} else {
			dst, err = tupleio.DecodeCounted(dst[:0], payload)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.m["tupleio.encode_ns_per_tuple"] = encNs / tuples
	r.m["tupleio.decode_ns_per_tuple"] = decNs / tuples

	// core: one direction of the paper's structure, and the sketch
	// under it.
	cs, err := core.NewSummary(core.F2Aggregate(), core.Config{
		Eps: summaryOptions.Eps, Delta: summaryOptions.Delta, YMax: summaryOptions.YMax,
		MaxStreamLen: summaryOptions.MaxStreamLen, MaxX: summaryOptions.MaxX, Seed: summaryOptions.Seed,
	})
	if err != nil {
		return err
	}
	ns, err := r.replay(tr, "core.AddBatch", func(_ int, f []correlated.Tuple) error { return cs.AddBatch(f) })
	if err != nil {
		return err
	}
	r.m["core.addbatch_ns_per_tuple"] = ns / tuples
	ms, err := repeat(tr, "core.Query", ledgerQueries, queryEach(cs.Query))
	if err != nil {
		return err
	}
	r.m["core.query_ms"] = ms / float64(len(cutoffs))
	sk, _, err := cs.QuerySketch(cutoffs[1])
	if err != nil {
		return err
	}
	// One span per frame's worth of adds: a span per add would time the
	// clock, not the sketch.
	ns, _ = r.replay(tr, "sketch.Add", func(_ int, f []correlated.Tuple) error {
		for _, t := range f {
			sk.Add(t.X, 1)
		}
		return nil
	})
	r.m["sketch.add_ns"] = ns / tuples

	// correlated: one plain F2Summary on this goroutine — the
	// single-threaded rendition of the job the sharded engine does.
	sum, err := correlated.NewF2Summary(summaryOptions)
	if err != nil {
		return err
	}
	if ns, err = r.replay(tr, "correlated.AddBatch", func(_ int, f []correlated.Tuple) error { return sum.AddBatch(f) }); err != nil {
		return err
	}
	r.m["correlated.addbatch_ns_per_tuple"] = ns / tuples
	if ms, err = repeat(tr, "correlated.QueryLE", ledgerQueries, queryEach(sum.QueryLE)); err != nil {
		return err
	}
	r.m["correlated.query_ms"] = ms / float64(len(cutoffs))
	img, err := sum.MarshalBinary()
	if err != nil {
		return err
	}
	into, err := correlated.NewF2Summary(summaryOptions)
	if err != nil {
		return err
	}
	if r.m["correlated.merge_marshaled_ms"], err = repeat(tr, "correlated.MergeMarshaled", 1, func() error { return into.MergeMarshaled(img) }); err != nil {
		return err
	}

	// shard: the engine corrd runs per tenant, driven the way a commit
	// group drives it — AddBatch then Flush per frame.
	eng, err := shard.NewF2(summaryOptions, shards)
	if err != nil {
		return err
	}
	defer eng.Close()
	var addNs, flushNs, refreshNs float64
	var refreshes int
	_, err = r.replay(tr, "shard.frame", func(k int, f []correlated.Tuple) error {
		ns, err := tr.call("shard.AddBatch", "shard.frame", k, func() error { return eng.AddBatch(f) })
		if err != nil {
			return err
		}
		addNs += ns
		if ns, err = tr.call("shard.Flush", "shard.frame", k, eng.Flush); err != nil {
			return err
		}
		flushNs += ns
		if (k+1)*r.w.frame/refreshEvery > k*r.w.frame/refreshEvery {
			if ns, err = tr.call("shard.RefreshCached", "shard.frame", k, eng.RefreshCached); err != nil {
				return err
			}
			refreshNs += ns
			refreshes++
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.m["shard.addbatch_ns_per_tuple"] = (addNs + flushNs) / tuples
	r.m["shard.flush_us"] = flushNs / nframes / 1e3
	r.m["shard.refresh_ms"] = refreshNs / float64(refreshes) / 1e6
	out := make([]float64, len(cutoffs))
	if r.m["shard.cached_query_ms"], err = repeat(tr, "shard.CachedQueryLEBatch", ledgerQueries, func() error { return eng.CachedQueryLEBatch(cutoffs, out) }); err != nil {
		return err
	}
	if r.m["shard.marshal_ms"], err = repeat(tr, "shard.MarshalMerged", 1, func() (err error) { img, err = eng.MarshalMerged(); return err }); err != nil {
		return err
	}
	r.m["shard.image_bytes"] = float64(len(img))

	// wal: one record per frame, as a commit group of one would log it.
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	var appendNs, syncNs float64
	_, err = r.replay(tr, "wal.record", func(k int, f []correlated.Tuple) error {
		payload = tupleio.AppendCountedBatch(payload[:0], f)
		ns, err := tr.call("wal.AppendNoSync", "wal.record", k, func() error {
			_, err := log.AppendNoSync(wal.RecordIngest, payload)
			return err
		})
		appendNs += ns
		if err != nil || k >= ledgerSyncs {
			return err
		}
		ns, err = tr.call("wal.Sync", "wal.record", k, log.Sync)
		syncNs += ns
		return err
	})
	if err != nil {
		return err
	}
	r.m["wal.append_us_per_record"] = appendNs / nframes / 1e3
	r.m["wal.sync_us"] = syncNs / min(nframes, ledgerSyncs) / 1e3
	ns, err = tr.call("wal.Replay", "ledger", 0, func() error {
		return log.Replay(0, func(_ uint64, _ wal.RecordType, p []byte) (err error) {
			dst, err = tupleio.DecodeCounted(dst[:0], p)
			return err
		})
	})
	if err != nil {
		return err
	}
	r.m["wal.replay_ns_per_tuple"] = ns / tuples

	// The reconciliation row.
	st, err := client.DialStream(ctx, r.srv.stream, client.WithStreamWindow(1), client.WithAckBuffer(1))
	if err != nil {
		return err
	}
	g := r.generator(0)
	batch := make([]correlated.Tuple, r.w.frame)
	rtt := make([]float64, 0, probeFrames)
	for k := 0; k < probeFrames; k++ {
		for j := range batch {
			t, _ := g.Next()
			batch[j] = correlated.Tuple{X: t.X, Y: t.Y, W: 1}
		}
		ns, err := tr.call("ledger.probe", "ledger", k, func() error {
			if err := st.Send(batch); err != nil {
				return err
			}
			a, ok := <-st.Acks()
			if !ok {
				return fmt.Errorf("stream closed before the ack")
			}
			return a.Err()
		})
		if err != nil {
			st.Close()
			return err
		}
		rtt = append(rtt, ns)
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("probe stream: %w", err)
	}
	sort.Float64s(rtt)
	probeUs := rtt[len(rtt)/2] / 1e3
	layersUs := (encNs+decNs+addNs+flushNs)/nframes/1e3 + r.m["wal.append_us_per_record"] + r.m["wal.sync_us"]
	r.m["ledger.probe_ack_p50_us"] = probeUs
	r.m["ledger.explained_ratio"] = layersUs / probeUs
	r.m["ledger.unexplained_us"] = probeUs - layersUs
	return nil
}
