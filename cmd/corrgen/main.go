// Command corrgen emits the paper's evaluation datasets as CSV on stdout
// — one "x,y" tuple per line — or, with -target, streams them straight
// into a running corrd daemon through the client's chunked batch ingest,
// turning the generator into a self-contained load driver for the
// network service.
//
// Usage:
//
//	corrgen -dataset uniform|zipf1|zipf2|ethernet [-n 1000000] [-seed 1]
//	        [-xdom 500001] [-ydom 1000001]
//	        [-target http://localhost:7070] [-chunk 8192]
//	        [-clients 8] [-tenants 64] [-load-json load.json]
//
// With -clients N (and -target) the tuples are split across N concurrent
// ingest clients — the service-level load mode. The run reports req/s,
// acked tuples/s, and ingest latency percentiles, optionally as JSON with
// -load-json (see load.go). Queries beside ingest are measured by
// benchmarks/corrdbench's mixed-paced workload.
//
// With -stream host:port the ingest side switches to corrd's persistent
// streaming transport (-stream-addr): one connection per client, frames
// pipelined ahead of the server's acks, the wire-speed alternative to
// HTTP. -target is still required for the health check.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/gen"
)

func main() {
	var (
		dataset  = flag.String("dataset", "uniform", "uniform, zipf1, zipf2, or ethernet")
		n        = flag.Int("n", 1_000_000, "number of tuples")
		seed     = flag.Uint64("seed", 1, "random seed")
		xdom     = flag.Uint64("xdom", 500_001, "identifier domain size (not used by ethernet)")
		ydom     = flag.Uint64("ydom", 1_000_001, "y domain size (not used by ethernet)")
		target   = flag.String("target", "", "corrd base URL; send tuples there instead of stdout")
		streamTo = flag.String("stream", "", "corrd -stream-addr host:port; ingest over the persistent streaming transport instead of HTTP")
		chunk    = flag.Int("chunk", 8192, "tuples per ingest request with -target")

		clients  = flag.Int("clients", 1, "concurrent ingest clients with -target (load mode when > 1)")
		loadJSON = flag.String("load-json", "", "write the load-mode report as JSON to this file")

		tenant  = flag.String("tenant", "", "tenant key scoping every request (with -target)")
		tenants = flag.Int("tenants", 1, "load mode: fan the tuples out across this many tenants t000..tNNN (forces load mode when > 1)")
	)
	flag.Parse()

	var s gen.Stream
	switch *dataset {
	case "uniform":
		s = gen.Uniform(*n, *xdom, *ydom, *seed)
	case "zipf1":
		s = gen.Zipf(*n, *xdom, *ydom, 1.0, *seed)
	case "zipf2":
		s = gen.Zipf(*n, *xdom, *ydom, 2.0, *seed)
	case "ethernet":
		s = gen.Ethernet(*n, *seed)
	default:
		fmt.Fprintf(os.Stderr, "corrgen: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	if *target != "" {
		if *clients > 1 || *streamTo != "" || *tenants > 1 {
			cfg := &loadConfig{
				target: *target, streamAddr: *streamTo, dataset: *dataset, n: *n, seed: *seed,
				xdom: *xdom, ydom: *ydom, chunk: max(*chunk, 1),
				clients: max(*clients, 1), jsonPath: *loadJSON,
				tenant: *tenant, tenants: max(*tenants, 1),
			}
			if err := runLoad(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "corrgen: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if err := stream(s, *target, *chunk, *tenant); err != nil {
			fmt.Fprintf(os.Stderr, "corrgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	w := bufio.NewWriterSize(os.Stdout, 1<<20)
	defer w.Flush()
	buf := make([]byte, 0, 64)
	for {
		t, ok := s.Next()
		if !ok {
			return
		}
		buf = strconv.AppendUint(buf[:0], t.X, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, t.Y, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			fmt.Fprintf(os.Stderr, "corrgen: %v\n", err)
			os.Exit(1)
		}
	}
}

// stream drives the generated tuples into a corrd daemon in chunked
// batches (scoped to tenant when non-empty), reporting throughput on
// stderr.
func stream(s gen.Stream, target string, chunk int, tenant string) error {
	if chunk < 1 {
		chunk = 1
	}
	opts := []client.Option{client.WithChunkSize(chunk)}
	if tenant != "" {
		opts = append(opts, client.WithTenant(tenant))
	}
	cl := client.New(target, opts...)
	ctx := context.Background()
	if err := cl.Healthy(ctx); err != nil {
		return fmt.Errorf("target %s not healthy: %w", target, err)
	}
	batch := make([]correlated.Tuple, 0, chunk)
	start := time.Now()
	sent := 0
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		batch = append(batch, correlated.Tuple{X: t.X, Y: t.Y, W: 1})
		if len(batch) == chunk {
			if err := cl.AddBatch(ctx, batch); err != nil {
				return fmt.Errorf("after %d tuples: %w", sent, err)
			}
			sent += len(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := cl.AddBatch(ctx, batch); err != nil {
			return fmt.Errorf("after %d tuples: %w", sent, err)
		}
		sent += len(batch)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "corrgen: sent %d tuples to %s in %v (%.0f tuples/s)\n",
		sent, target, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	return nil
}
