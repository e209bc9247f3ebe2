package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

func init() {
	engine.Register(engine.Engine{Name: "dist-scan", Kernel: intersect.MergeEarly, Checkpoints: true, Run: runLoopback})
}

// runLoopback is the "dist-scan" engine: the package's Coordinator over p
// in-process Workers behind the loopback transport below, so
// Stats.CommBytes is the measured gob traffic of the three rounds.
// opt.Workers selects the partition count (default 4), opt.Kernel the
// workers' kernel; each RPC gets DefaultStepTimeout.
func runLoopback(ctx context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, _ *engine.Workspace) (*result.Result, error) {
	p := opt.Workers
	if p < 1 {
		p = 4
	}
	lb := make(loopback, p)
	shards := make([]string, p)
	for s := range shards {
		// One phase goroutine per partition: the partitions are the
		// parallelism, as in the BSP systems this stands in for.
		w, err := NewWorker(g, WorkerOptions{Shard: s, Shards: p, Workers: 1, Kernel: opt.Kernel})
		if err != nil {
			return nil, err
		}
		host := fmt.Sprintf("shard-%d", s)
		lb[host] = w.Handler()
		shards[s] = "http://" + host
	}
	c, err := NewCoordinator(g, Options{
		Shards: shards,
		Client: &http.Client{Transport: lb},
		// In-process there is no restart to wait for, only injected faults
		// to ride out: three attempts, 1ms doubling to 50ms.
		MaxAttempts:     3,
		RetryBackoff:    time.Millisecond,
		MaxRetryBackoff: 50 * time.Millisecond,
		// The run's numbers are its Stats (CompSim calls, CommBytes); the
		// shard.* counters stay private to it instead of adding a batch
		// run's traffic to a serving process's fleet totals.
		Registry: obsv.New(),
	})
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("dist-scan(p=%d)", p)
	res, pe := c.run(ctx, th)
	if pe != nil {
		pe.Stats.Algorithm = label
		return nil, pe
	}
	res.Stats.Algorithm = label
	return res, nil
}

// loopback is an http.RoundTripper that serves each request in-process on
// the handler registered for its URL host. It behaves like a network as
// far as the coordinator's fault ladder can tell: the request context
// bounds the wait (the handler sees it end, like a server that lost its
// client, and whatever it answers after that is dropped), and a handler
// that panics — net/http's severed connection — comes back as a transport
// error.
type loopback map[string]http.Handler

func (lb loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := lb[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("loopback: no worker at %q", req.URL.Host)
	}
	rw := &loopbackWriter{header: make(http.Header), status: http.StatusOK}
	done := make(chan error, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				done <- fmt.Errorf("loopback: connection to %s severed: %v", req.URL.Host, v)
				return
			}
			done <- nil
		}()
		h.ServeHTTP(rw, req)
	}()
	select {
	case err := <-done:
		if cerr := req.Context().Err(); cerr != nil {
			return nil, cerr // both cases were ready: the client had already hung up
		}
		if err != nil {
			return nil, err
		}
		return &http.Response{
			StatusCode: rw.status,
			Header:     rw.header,
			Body:       io.NopCloser(&rw.body),
			Request:    req,
		}, nil
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
}

// loopbackWriter buffers one handler's response.
type loopbackWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *loopbackWriter) Header() http.Header         { return w.header }
func (w *loopbackWriter) WriteHeader(status int)      { w.status = status }
func (w *loopbackWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
