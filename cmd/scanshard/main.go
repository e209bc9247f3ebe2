// Command scanshard is one shard worker of the multi-process serving tier:
// it owns a contiguous vertex range of the graph and serves superstep
// round RPCs (roles, clustering, membership) to a coordinator
// — scanserver running with -shards (see internal/shard).
//
// Usage:
//
//	scanshard -dataset orkut-sim -shard 0 -shards 4 -addr :9100
//	scanshard -graph web.bin -shard 1 -shards 4 -addr :9101
//
// Every worker loads the same snapshot (the partition bounds are derived
// deterministically from it). Every step request names the partition it
// is addressed to, so a worker launched with the wrong -shard/-shards
// refuses it (400 wrong_shard) instead of serving wrong ranges. When the
// coordinator's graph epoch moves ahead (mutations), it pushes a snapshot
// sync — the worker catches up in place, never serving a stale view.
//
// Endpoints (coordinator-facing): /shard/step, /shard/sync.
//
// -chaos-seed arms the shard fault plan (straggler supersteps, abrupt
// worker death, RPC failures). An injected crash hard-exits the process
// with status 3, the same way an OOM kill or a SIGKILL looks to the
// coordinator; the chaos suites restart the process and assert the fleet
// recovers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppscan/graph"
	"ppscan/internal/dataset"
	"ppscan/internal/fault"
	"ppscan/internal/intersect"
	"ppscan/internal/shard"
)

// Connection bounds, deliberately not flags (the same as scanserver's).
// readTimeout bounds reading a whole request: a body at the
// shard.DefaultMaxBodyBytes cap (1 GiB) fits at ~9 MB/s, far below what a
// fleet on one network moves. The coordinator's requests carry no large
// headers, so maxHeaderBytes only refuses junk (431).
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 120 * time.Second
	maxHeaderBytes    = 64 << 10
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file to serve (.txt/.bin, optionally .gz)")
		dsName    = flag.String("dataset", "", "named synthetic dataset (alternative to -graph)")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		addr      = flag.String("addr", ":9100", "listen address")
		shardID   = flag.Int("shard", -1, "this worker's shard id in [0, shards)")
		shards    = flag.Int("shards", 0, "total shard count of the fleet")
		workers   = flag.Int("workers", 0, "goroutines for each round's ppSCAN phases (0 = GOMAXPROCS)")
		grace     = flag.Duration("shutdown-grace", 15*time.Second, "max time to wait for in-flight rounds on SIGTERM/SIGINT")
		chaosSeed = flag.Int64("chaos-seed", 0, "arm deterministic shard fault injection with this seed (0 = off): straggler supersteps, abrupt crashes (the process hard-exits with status 3), RPC failures")
	)
	flag.Parse()
	if *shards < 1 || *shardID < 0 || *shardID >= *shards {
		fmt.Fprintf(flag.CommandLine.Output(),
			"scanshard: -shard %d -shards %d invalid: need 0 <= shard < shards\n", *shardID, *shards)
		flag.Usage()
		os.Exit(2)
	}
	if *chaosSeed != 0 {
		fault.Enable(fault.NewShardPlan(*chaosSeed))
		log.Printf("shard fault injection armed (seed %d): this worker will misbehave on purpose", *chaosSeed)
	}

	var g *graph.Graph
	var err error
	switch {
	case *graphPath != "":
		g, err = graph.LoadFile(*graphPath)
	case *dsName != "":
		g, err = dataset.Load(*dsName, *scale)
	default:
		err = fmt.Errorf("one of -graph or -dataset is required")
	}
	if err != nil {
		log.Fatal("scanshard: ", err)
	}

	w, err := shard.NewWorker(g, shard.WorkerOptions{
		Shard:   *shardID,
		Shards:  *shards,
		Workers: *workers,
		Kernel:  intersect.BlockMerge,
		// An injected ShardCrash is process death, not an error response:
		// exit abruptly so the coordinator sees a severed connection and
		// exercises its crash-containment path end to end.
		CrashHook: func() {
			log.Printf("injected crash: exiting 3")
			os.Exit(3)
		},
	})
	if err != nil {
		log.Fatal("scanshard: ", err)
	}
	lo, hi := w.Range()
	log.Printf("shard %d/%d owns vertices [%d, %d) at epoch %d",
		*shardID, *shards, lo, hi, w.Epoch())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal("scanshard: ", err)
	}
	log.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{
		Handler: w.Handler(), ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		IdleTimeout: idleTimeout, MaxHeaderBytes: maxHeaderBytes,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("shutdown signal received, draining (grace %v)", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v (forcing close)", err)
			httpSrv.Close()
		}
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal("scanshard: ", err)
	}
	<-done
	log.Printf("drained, exiting")
}
