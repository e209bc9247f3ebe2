// Command scanserver serves online structural clustering queries over HTTP
// — the interactive-exploration application the paper motivates (§1).
//
// Usage:
//
//	scanserver -dataset orkut-sim -addr :8080
//	scanserver -graph web.bin -index -addr :8080
//
// Endpoints: /healthz, /cluster?eps=&mu=[&members=true],
// /cluster/sweep?eps=start:end:step&mu= (one NDJSON line per eps step),
// POST /edges (with -mutations: batched NDJSON edge insertions/deletions
// committed as a new graph epoch, the GS*-Index maintained
// incrementally), /vertex?v=&eps=&mu=, /quality?eps=&mu=, /metrics, and
// /debug/slowest — the -exemplars slowest cache misses of the last 15
// minutes, each with its epoch, parameters, duration, error and build
// time. With -pprof, the Go profiling endpoints are additionally served
// under /debug/pprof/.
//
// Every answer is extracted from the epoch's GS*-Index. The first cache
// miss of an index-less epoch builds it, misses that arrive meanwhile wait
// for that build, and the server keeps it; -index builds it at startup
// instead (-indexfile, which implies -index, loads it from disk). With
// -shards, a /cluster, /vertex or /quality miss on an index-less epoch
// goes to the fleet instead; sweeps still build. The stages are logged at
// startup. Extractions draw their scratch memory from a per-server
// workspace pool.
//
// No request is refused for load. -request-timeout cancels a request that
// exceeds the deadline (503 + Retry-After), so it must exceed one index
// build. On SIGTERM/SIGINT the server drains: /healthz flips to 503 so
// load balancers stop routing here, in-flight requests finish (up to
// -shutdown-grace), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/dataset"
	"ppscan/internal/fault"
	"ppscan/internal/server"
	"ppscan/internal/shard"
)

// Connection bounds, deliberately not flags. There is no WriteTimeout: it
// would also cap the computation of a sweep, which writes its body only
// after its last step; -request-timeout bounds that. readTimeout bounds
// reading a whole request, body included: a full-size POST /edges body
// (64 MiB) fits at ~0.6 MB/s.
// net/http clears the read deadline once the body is read, so it never
// cuts a running computation short. maxHeaderBytes fits a comma-list
// sweep of 2 048 of the longest valid eps (a percent-encoded
// "4294967295%2F4294967295%2C" each), eight times the default
// -sweep-max-steps; a range spec is a few bytes at any step count. A
// larger request line or header block is answered 431.
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
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "worker goroutines per query (0 = GOMAXPROCS)")
		useIndex  = flag.Bool("index", false, "build the GS*-Index at startup instead of on the first cache miss")
		indexFile = flag.String("indexfile", "", "load the index from this file if it exists, otherwise build and save it there (implies -index)")
		cacheSize = flag.Int("cache", server.DefaultCacheSize, "response-cache capacity (distinct parameter combinations kept resident)")
		pprofOn   = flag.Bool("pprof", false, "expose the Go profiling endpoints under /debug/pprof/")
		logReqs   = flag.Bool("log-requests", false, "log one structured line per HTTP request")

		mutations  = flag.Bool("mutations", false, "enable POST /edges: batched NDJSON edge mutations commit new graph epochs; with -index the GS*-Index is maintained incrementally across commits")
		sweepSteps = flag.Int("sweep-max-steps", server.DefaultSweepMaxSteps, "max eps steps one /cluster/sweep request may stream")

		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline (0 = none), longer than one index build; exceeded requests get 503")
		grace      = flag.Duration("shutdown-grace", 15*time.Second, "max time to wait for in-flight requests on SIGTERM/SIGINT")
		exemplars  = flag.Int("exemplars", 8, "retain the N slowest cache misses of the last 15 minutes at /debug/slowest (0 = off)")
		chaosSeed  = flag.Int64("chaos-seed", 0, "arm deterministic fault injection with this seed (0 = off) — a chaos drill: injected worker panics, delays and transient faults exercise the containment paths while /metrics reports fault.* counters")

		shardSpec = flag.String("shards", "", "answer the misses of an index-less epoch on a multi-process scanshard worker fleet: one base URL per shard, semicolon-separated, e.g. \"http://h1:9100;http://h1:9101\"; an epoch's index, once built, answers first")
	)
	flag.Parse()
	var shardFleet []string
	if *shardSpec != "" {
		var perr error
		shardFleet, perr = parseShardSpec(*shardSpec)
		if perr != nil {
			fmt.Fprintf(flag.CommandLine.Output(), "scanserver: bad -shards: %v\n", perr)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *chaosSeed != 0 {
		fault.Enable(fault.NewPlan(*chaosSeed))
		log.Printf("fault injection armed (seed %d): this server will misbehave on purpose", *chaosSeed)
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
		log.Fatal("scanserver: ", err)
	}
	log.Printf("serving %s", graph.ComputeStats("graph", g))

	srv := server.New(g, *workers).
		WithCacheSize(*cacheSize).
		WithRequestTimeout(*reqTimeout).
		WithSweepMaxSteps(*sweepSteps).
		WithExemplars(*exemplars, server.DefaultExemplarWindow)
	stages := []string{fmt.Sprintf("cache(%d)", *cacheSize), "index"}
	if *logReqs {
		srv = srv.WithLogging(log.Default())
	}
	if *useIndex || *indexFile != "" {
		ix, err := obtainIndex(g, *workers, *indexFile)
		if err != nil {
			log.Fatal("scanserver: ", err)
		}
		srv = srv.WithIndex(ix)
	}
	if *mutations {
		// After WithIndex: the mutation path then maintains the index
		// incrementally instead of serving an index-less epoch 1.
		srv = srv.WithMutations()
		log.Printf("mutations enabled: POST /edges commits batched edge churn into new epochs")
	}
	var coord *shard.Coordinator
	if shardFleet != nil {
		coord, err = shard.NewCoordinator(g, shard.Options{Shards: shardFleet})
		if err != nil {
			log.Fatal("scanserver: ", err)
		}
		srv = srv.WithShards(coord)
		stages = append(stages, fmt.Sprintf("fleet(%d shards)", len(shardFleet)))
	}
	log.Printf("resolve pipeline: %s", strings.Join(stages, " → "))
	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	// Listen explicitly so the resolved address (e.g. with -addr :0 in
	// tests) can be logged before serving.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal("scanserver: ", err)
	}
	log.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{
		Handler: handler, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		IdleTimeout: idleTimeout, MaxHeaderBytes: maxHeaderBytes,
	}
	// Drain on SIGTERM/SIGINT: flip /healthz to 503, stop accepting
	// connections, and give in-flight requests -shutdown-grace to finish.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("shutdown signal received, draining (grace %v)", *grace)
		srv.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v (forcing close)", err)
			httpSrv.Close()
		}
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal("scanserver: ", err)
	}
	<-done
	log.Printf("drained, exiting")
}

// parseShardSpec parses the -shards fleet spec: one http(s) base URL per
// shard, semicolon-separated.
func parseShardSpec(spec string) ([]string, error) {
	var fleet []string
	for i, addr := range strings.Split(spec, ";") {
		addr = strings.TrimSpace(addr)
		switch {
		case addr == "":
			return nil, fmt.Errorf("shard %d has no base URL", i)
		case strings.Contains(addr, ","):
			return nil, fmt.Errorf("shard %d: %q lists more than one base URL (a shard has one worker)", i, addr)
		case !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://"):
			return nil, fmt.Errorf("shard %d: %q is not an http(s) base URL", i, addr)
		}
		fleet = append(fleet, strings.TrimRight(addr, "/"))
	}
	return fleet, nil
}

// obtainIndex loads a cached index file when present, otherwise builds the
// index (and saves it when a path was given).
func obtainIndex(g *graph.Graph, workers int, path string) (*ppscan.Index, error) {
	if path != "" {
		if f, err := os.Open(path); err == nil {
			defer f.Close()
			ix, err := ppscan.LoadIndex(f, g)
			if err != nil {
				return nil, fmt.Errorf("loading index %s: %w", path, err)
			}
			log.Printf("GS*-Index loaded from %s (%.1f MB)", path, float64(ix.MemoryBytes())/1e6)
			return ix, nil
		}
	}
	t0 := time.Now()
	ix := ppscan.BuildIndex(g, workers)
	log.Printf("GS*-Index built in %v (%.1f MB)", time.Since(t0).Round(time.Millisecond),
		float64(ix.MemoryBytes())/1e6)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		err = ppscan.SaveIndex(f, ix)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		log.Printf("GS*-Index saved to %s", path)
	}
	return ix, nil
}
