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
// With -target the run is the service-level load mode (see load.go): the
// tuples are split across -clients concurrent ingest clients (one by
// default, which sends the one stream in order), and the run reports
// req/s, acked tuples/s, and ingest latency percentiles, optionally as
// JSON with -load-json. Queries beside ingest are measured by
// benchmarks/corrdbench's mixed-paced workload.
//
// With -stream host:port the ingest side switches to corrd's persistent
// streaming transport (-stream-addr): one connection per client, frames
// pipelined ahead of the server's acks, the wire-speed alternative to
// HTTP. -target is still required for the health check.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
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

		clients  = flag.Int("clients", 1, "concurrent ingest clients with -target")
		loadJSON = flag.String("load-json", "", "write the load-mode report as JSON to this file")

		tenant  = flag.String("tenant", "", "tenant key scoping every request (with -target)")
		tenants = flag.Int("tenants", 1, "fan the tuples out across this many tenants t000..tNNN (with -target)")
	)
	flag.Parse()

	cfg := &loadConfig{
		target: *target, streamAddr: *streamTo, dataset: *dataset, n: *n, seed: *seed,
		xdom: *xdom, ydom: *ydom, chunk: max(*chunk, 1),
		clients: max(*clients, 1), jsonPath: *loadJSON,
		tenant: *tenant, tenants: max(*tenants, 1),
	}
	s, err := makeStream(cfg, *n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrgen: %v\n", err)
		os.Exit(2)
	}

	if *target != "" {
		if err := runLoad(cfg); err != nil {
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
