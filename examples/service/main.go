// Command service demonstrates the corrd network subsystem end-to-end,
// in one process and over real HTTP sockets:
//
//  1. A coordinator server answers queries over everything it hears.
//  2. Two site servers ingest disjoint substreams into their own
//     write-ahead logs and forward every record of those logs to the
//     coordinator (the paper's site→coordinator path, shipped as log
//     bytes through POST /v1/forward), which applies each exactly once
//     into its one summary: no merge of site summaries.
//  3. A third substream is ingested directly into the coordinator
//     through the client's chunked AddBatch — the remote-ingest path.
//
// The coordinator's answers over the union stream are then compared
// against exact brute-force aggregation, beside the bytes the sites
// shipped per tuple, and the coordinator state is checkpointed and a copy
// of its state directory restored into a second server to show the
// durability path producing identical answers.
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/gen"
	"github.com/streamagg/correlated/service"
)

const (
	nPerStream = 120_000
	ymax       = 1<<20 - 1
	xdom       = 1 << 14
)

func main() {
	opts := correlated.Options{
		Eps: 0.15, Delta: 0.1, YMax: ymax,
		MaxStreamLen: 1 << 20, MaxX: xdom, Seed: 42,
	}
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "corrd-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Coordinator ----------------------------------------------------
	// The handler counts the bytes the sites forward to it.
	coordDir := filepath.Join(dir, "coordinator")
	coord, err := service.New(service.Config{Options: opts, WALDir: coordDir})
	if err != nil {
		log.Fatal(err)
	}
	var shipped atomic.Int64
	coordSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/forward" {
			shipped.Add(r.ContentLength)
		}
		coord.Handler().ServeHTTP(w, r)
	}))
	defer coordSrv.Close()
	fmt.Printf("coordinator listening on %s\n", coordSrv.URL)

	// ---- Two sites forwarding their logs upstream -----------------------
	var sites []*service.Server
	var siteClients []*client.Client
	for i := 0; i < 2; i++ {
		site, err := service.New(service.Config{
			Options: opts,
			WALDir:  filepath.Join(dir, fmt.Sprintf("site-%d", i)),
			PushTo:  coordSrv.URL,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv := httptest.NewServer(site.Handler())
		defer srv.Close()
		sites = append(sites, site)
		siteClients = append(siteClients, client.New(srv.URL))
		fmt.Printf("site %d listening on %s, forwarding its log to the coordinator\n", i, srv.URL)
	}

	// ---- Streams: two through the sites, one direct ----------------------
	var all []gen.Tuple
	ingest := func(cl *client.Client, seed uint64) {
		s := gen.Zipf(nPerStream, xdom, ymax+1, 1.0, seed)
		batch := make([]correlated.Tuple, 0, 8192)
		for {
			t, ok := s.Next()
			if !ok {
				break
			}
			all = append(all, t)
			batch = append(batch, correlated.Tuple{X: t.X, Y: t.Y, W: 1})
			if len(batch) == cap(batch) {
				if err := cl.AddBatch(ctx, batch); err != nil {
					log.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := cl.AddBatch(ctx, batch); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	ingest(siteClients[0], 7)
	ingest(siteClients[1], 8)
	coordCl := client.New(coordSrv.URL)
	ingest(coordCl, 9) // direct remote ingest into the coordinator
	fmt.Printf("ingested %d tuples over HTTP in %v\n", 3*nPerStream, time.Since(start).Round(time.Millisecond))

	// Close the sites: each forwards what its log still holds.
	for _, s := range sites {
		if err := s.Close(); err != nil {
			log.Fatal(err)
		}
	}

	st, err := coordCl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator: %d tuples, space %d\n", st.Count, st.Space)
	if st.Count != 3*nPerStream {
		log.Fatalf("coordinator holds %d tuples, want %d", st.Count, 3*nPerStream)
	}
	perTuple := float64(shipped.Load()) / (2 * nPerStream)

	// ---- Queries vs exact ------------------------------------------------
	cuts := []uint64{ymax / 8, ymax / 2, ymax}
	for _, c := range cuts {
		got, err := coordCl.QueryLE(ctx, c)
		if err != nil {
			log.Fatal(err)
		}
		want := exactF2LE(all, c)
		fmt.Printf("F2{x : y <= %8d}  service %14.0f   exact %14.0f   rel.err %+.3f   shipped %.1f B/tuple\n",
			c, got, want, got/want-1, perTuple)
	}

	// ---- Durability: checkpoint, restore into a fresh server -------------
	// The fresh server starts on a copy of the state directory: its log,
	// which holds its checkpoints, is all there is.
	if err := coord.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	restoredDir := filepath.Join(dir, "restored")
	entries, err := os.ReadDir(coordDir)
	err = cmp.Or(err, os.Mkdir(restoredDir, 0o755))
	for _, e := range entries {
		data, rerr := os.ReadFile(filepath.Join(coordDir, e.Name()))
		err = cmp.Or(err, rerr, os.WriteFile(filepath.Join(restoredDir, e.Name()), data, 0o644))
	}
	if err != nil {
		log.Fatal(err)
	}
	restoredSvc, err := service.New(service.Config{Options: opts, WALDir: restoredDir})
	if err != nil {
		log.Fatal(err)
	}
	defer restoredSvc.Close()
	restoredSrv := httptest.NewServer(restoredSvc.Handler())
	defer restoredSrv.Close()
	restoredCl := client.New(restoredSrv.URL)
	for _, c := range cuts {
		a, err1 := coordCl.QueryLE(ctx, c)
		b, err2 := restoredCl.QueryLE(ctx, c)
		if err1 != nil || err2 != nil {
			log.Fatal(err1, err2)
		}
		if a != b {
			log.Fatalf("restored server diverged at c=%d: %v vs %v", c, a, b)
		}
	}
	fmt.Printf("server restored from a copy of the state directory answers identically at %d cutoffs\n", len(cuts))
	if err := coord.Close(); err != nil {
		log.Fatal(err)
	}
}

// exactF2LE brute-forces F2 over the selected substream.
func exactF2LE(all []gen.Tuple, c uint64) float64 {
	freq := make(map[uint64]float64)
	for _, t := range all {
		if t.Y <= c {
			freq[t.X]++
		}
	}
	var f2 float64
	for _, f := range freq {
		f2 += f * f
	}
	return f2
}
