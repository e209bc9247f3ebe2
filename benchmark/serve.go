package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ppscan/graph"
)

// deployment is one started copy of the programs under test: scanserver,
// and for serve-fleet the two scanshard workers behind it.
type deployment struct {
	procs []*proc // server last
	base  string  // http://host:port of scanserver
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

// peakRSSMB sums VmHWM over the deployment's processes.
func (d *deployment) peakRSSMB() float64 {
	total := 0.0
	for _, p := range d.procs {
		total += peakRSSMB(p.cmd.Process.Pid)
	}
	return total
}

// launch starts the workload's programs on the graph file and returns once
// scanserver listens.
func (r *run) launch(graphFile string, extraArgs ...string) (*deployment, error) {
	d := &deployment{}
	args := append([]string{"-graph", graphFile}, r.w.serverArgs...)
	args = append(args, extraArgs...)
	if r.w.fleet {
		spec := ""
		for i := 0; i < 2; i++ {
			p, err := startProc(filepath.Join(r.env.bin, "scanshard"),
				"-graph", graphFile, "-shard", fmt.Sprint(i), "-shards", "2", "-workers", "1")
			if err != nil {
				d.stop()
				return nil, err
			}
			d.procs = append(d.procs, p)
			if i > 0 {
				spec += ";"
			}
			spec += "http://" + p.addr
		}
		args = append(args, "-shards", spec)
	}
	p, err := startProc(filepath.Join(r.env.bin, "scanserver"), args...)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.procs = append(d.procs, p)
	d.base = "http://" + p.addr
	return d, nil
}

// clusterBody is the part of a GET /cluster answer (and of each sweep
// line) that is checked.
type clusterBody struct {
	Eps          string `json:"eps"`
	Mu           int    `json:"mu"`
	Clusters     int    `json:"clusters"`
	Cores        int    `json:"cores"`
	Memberships  int    `json:"memberships"`
	CompSimCalls int64  `json:"compSimCalls"`
}

// edgesBody is the checked part of a POST /edges answer.
type edgesBody struct {
	Epoch   uint64 `json:"epoch"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Ignored int    `json:"ignored"`
}

// sample is one finished operation.
type sample struct {
	op       op
	dur      time.Duration
	ok       bool
	epochLo  uint64 // churn: last acknowledged epoch when the read was sent …
	epochHi  uint64 // … and the highest a commit could have reached when it returned
	got      answer
	compSims int64
}

// session is the state the clients of one window share.
type session struct {
	r       *run
	in      *inputs
	want    map[key]answer
	base    string
	churn   bool
	cursor  []int         // per client: how far into its schedule earlier windows got
	acked   atomic.Uint64 // epoch of the last POST /edges answered
	sent    atomic.Uint64 // POSTs sent so far: no epoch beyond this exists
	failMu  sync.Mutex
	failure string // first failed operation, for the report
}

func (s *session) failf(format string, args ...any) {
	s.failMu.Lock()
	if s.failure == "" {
		s.failure = fmt.Sprintf(format, args...)
	}
	s.failMu.Unlock()
}

// client is one closed-loop connection: it sends its next operation when
// the previous one has been answered and checked.
type client struct {
	s    *session
	http *http.Client
	t    *track // nil: tracing off
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// do performs one operation, checks its answer and returns the sample.
// With tracing on it records the operation and, under it, the request's
// send, wait-for-first-byte and read phases, then decode and check.
func (c *client) do(o op, opID int64) sample {
	s := c.s
	sm := sample{op: o}
	var req *http.Request
	var err error
	var name string
	switch o.kind {
	case opGet:
		k := s.in.keys[o.idx]
		name = "GET /cluster"
		req, err = http.NewRequest("GET", fmt.Sprintf("%s/cluster?eps=%s&mu=%d", s.base, k.Eps, k.Mu), nil)
	case opSweep:
		name = "GET /cluster/sweep"
		req, err = http.NewRequest("GET", fmt.Sprintf("%s/cluster/sweep?eps=%s&mu=%d", s.base, sweepRange, sweepMus[o.idx]), nil)
	case opPost:
		name = "POST /edges"
		req, err = http.NewRequest("POST", s.base+"/edges", bytes.NewReader(s.in.bodies[o.idx]))
	}
	if err != nil {
		s.failf("%s: %v", name, err)
		return sm
	}
	var wrote, firstByte time.Time
	if c.t != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	if s.churn {
		sm.epochLo = s.acked.Load()
		if o.kind == opPost {
			s.sent.Add(1)
		}
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	sm.dur = end.Sub(start)
	if s.churn {
		sm.epochHi = s.sent.Load()
	}
	root := c.t.add(name, -1, opID, start, end)
	if c.t != nil && !wrote.IsZero() && !firstByte.IsZero() {
		c.t.add("http.send", root, opID, start, wrote)
		c.t.add("http.wait", root, opID, wrote, firstByte)
		c.t.add("http.read", root, opID, firstByte, end)
	}
	if err != nil {
		s.failf("%s: %v", name, err)
		return sm
	}
	if resp.StatusCode/100 != 2 {
		s.failf("%s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(body))
		return sm
	}
	c0 := time.Now()
	sm.ok = c.check(o, body, &sm)
	if c.t != nil {
		c1 := time.Now()
		c.t.add("decode+check", root, opID, c0, c1)
		c.t.close(root, c1)
	}
	return sm
}

// check decodes an answer and compares it with the oracle.
func (c *client) check(o op, body []byte, sm *sample) bool {
	s := c.s
	switch o.kind {
	case opGet:
		k := s.in.keys[o.idx]
		var cb clusterBody
		if err := json.Unmarshal(body, &cb); err != nil {
			s.failf("GET /cluster %v: %v", k, err)
			return false
		}
		sm.got = answer{cb.Clusters, cb.Cores, cb.Memberships}
		sm.compSims = cb.CompSimCalls
		if cb.Eps != k.Eps || cb.Mu != k.Mu {
			s.failf("GET /cluster %v answered for eps=%s mu=%d", k, cb.Eps, cb.Mu)
			return false
		}
		// Under churn the graph moves; reads are checked against their
		// epoch after the window (verifyChurn).
		if !s.churn && sm.got != s.want[k] {
			s.failf("GET /cluster %v = %+v, want %+v", k, sm.got, s.want[k])
			return false
		}
		return true
	case opSweep:
		sc := bufio.NewScanner(bytes.NewReader(body))
		for i := 0; ; i++ {
			if !sc.Scan() {
				if i != len(sweepEps) {
					s.failf("sweep answered %d lines, want %d", i, len(sweepEps))
				}
				return i == len(sweepEps)
			}
			var cb clusterBody
			if err := json.Unmarshal(sc.Bytes(), &cb); err != nil || i >= len(sweepEps) {
				s.failf("sweep line %d: %q: %v", i, sc.Bytes(), err)
				return false
			}
			k := key{sweepEps[i], sweepMus[o.idx]}
			if got := (answer{cb.Clusters, cb.Cores, cb.Memberships}); cb.Eps != k.Eps || got != s.want[k] {
				s.failf("sweep line %d (eps=%s) = %+v, want %v %+v", i, cb.Eps, got, k, s.want[k])
				return false
			}
		}
	default: // opPost
		var eb edgesBody
		if err := json.Unmarshal(body, &eb); err != nil {
			s.failf("POST /edges: %v", err)
			return false
		}
		s.acked.Store(eb.Epoch)
		adds, dels := 0, 0
		for _, e := range s.in.batches[o.idx] {
			if e.Del {
				dels++
			} else {
				adds++
			}
		}
		if eb.Added != adds || eb.Removed != dels || eb.Ignored != 0 {
			s.failf("POST /edges batch %d: added %d removed %d ignored %d, want %d %d 0",
				o.idx, eb.Added, eb.Removed, eb.Ignored, adds, dels)
			return false
		}
		return true
	}
}

// window runs the clients closed-loop for d and returns every sample per
// client plus the wall time from the common start to the last answer.
func (s *session) window(d time.Duration, clients int, tr *tracer) ([][]sample, time.Duration) {
	logs := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &client{s: s, http: newHTTPClient(), t: tr.track(id)}
			sched := s.in.scheds[id]
			defer c.http.CloseIdleConnections()
			i := s.cursor[id]
			for ; time.Now().Before(deadline); i++ {
				o := sched[i%len(sched)]
				if i >= len(sched) && o.kind == opPost {
					continue // a batch is never replayed
				}
				logs[id] = append(logs[id], c.do(o, int64(id)<<32|int64(i)))
			}
			s.cursor[id] = i
		}(id)
	}
	wg.Wait()
	return logs, time.Since(start)
}

// warmKeys are the reads set-up waits for after the server listens: enough
// to fill the workspace pool and open the index, few enough that set-up
// stays about the program and not about the window, and the same four
// whatever order the seed put the key set in.
var warmKeys = []key{{"0.3", 2}, {"0.45", 4}, {"0.5", 6}, {"0.6", 8}}

// setUp launches the programs and warms them; the returned time is from
// launch until the last warm-up read has been answered.
func (r *run) setUp(s *session, extraArgs ...string) (*deployment, float64, error) {
	t0 := time.Now()
	d, err := r.launch(s.in.graphFile, extraArgs...)
	if err != nil {
		return nil, 0, err
	}
	s.base = d.base
	c := &client{s: s, http: newHTTPClient()}
	defer c.http.CloseIdleConnections()
	for _, k := range warmKeys {
		if sm := c.do(op{opGet, int32(slices.Index(s.in.keys, k))}, 0); !sm.ok {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up read failed: %s", s.failure)
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

// newSession generates the inputs and the oracle's answers for a serving
// workload.
func (r *run) newSession() (*session, error) {
	in, err := makeInputs(r.w, r.seed, r.quick, r.seconds, r.clients, r.env.tmp)
	if err != nil {
		return nil, err
	}
	keys := append([]key(nil), in.keys...)
	if r.w.sweepEvery > 0 {
		for _, mu := range sweepMus {
			for _, eps := range sweepEps {
				keys = append(keys, key{eps, mu})
			}
		}
	}
	full, err := r.refAnswers(in.g, keys)
	if err != nil {
		return nil, err
	}
	s := &session{r: r, in: in, want: map[key]answer{}, churn: r.w.writeEvery > 0, cursor: make([]int, r.clients)}
	for k, res := range full {
		s.want[k] = answerOf(res)
	}
	return s, nil
}

// runServe measures a serving workload with tracing off.
func (r *run) runServe() (*report, error) {
	s, err := r.newSession()
	if err != nil {
		return nil, err
	}
	if err := r.env.buildServers(); err != nil {
		return nil, err
	}
	if r.trace {
		return r.traceServe(s)
	}
	var d *deployment
	var setups []float64
	for i := 0; i < r.setups; i++ {
		if d != nil {
			d.stop()
		}
		var secs float64
		if d, secs, err = r.setUp(s); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer d.stop()

	// The program's own counters across the window explain the client's
	// numbers (how many reads the cache took); fetched outside the window.
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	before, err := fetchMetrics(hc, d.base)
	if err != nil {
		return nil, err
	}
	logs, elapsed := s.window(r.share(1), r.clients, nil)
	after, err := fetchMetrics(hc, d.base)
	if err != nil {
		return nil, err
	}
	rss := d.peakRSSMB()
	d.stop()

	rep := &report{metrics: map[string]float64{}}
	var reads, heavy []float64
	byEps := map[string][]float64{}
	heavyName, isHeavy := r.w.heavyOp(s.in)
	for _, log := range logs {
		for _, sm := range log {
			rep.attempted++
			if !sm.ok {
				rep.failed++
				continue
			}
			if sm.op.kind == opGet {
				reads = append(reads, ms(sm.dur))
				eps := s.in.keys[sm.op.idx].Eps
				byEps[eps] = append(byEps[eps], ms(sm.dur))
			}
			if isHeavy(sm.op) {
				heavy = append(heavy, ms(sm.dur))
			}
		}
	}
	rep.firstFailure = s.failure
	for _, eps := range []string{"0.3", "0.4", "0.45", "0.5", "0.55", "0.6"} {
		rep.note("GET /cluster eps=%-4s n=%-5d p50 %9.3f ms", eps, len(byEps[eps]), median(byEps[eps]))
	}
	if s.churn {
		checked, err := s.verifyChurn(logs, rep, 20)
		if err != nil {
			return nil, err
		}
		rep.note("churn: %d commits; %d reads re-checked against their epoch", s.acked.Load(), checked)
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["req_per_s"] = float64(rep.attempted-rep.failed) / elapsed.Seconds()
	rep.metrics["lat_p50_ms"] = median(reads)
	rep.metrics["lat_tail_ms"] = percentile(reads, r.w.tail)
	rep.metrics["heavy_p50_ms"] = median(heavy)
	rep.metrics["peak_rss_mb"] = rss
	rep.note("clients=%d closed loop; GET /cluster n=%d, tail = p%.0f; heavy op = %s n=%d; cache hits %.0f of %.0f lookups",
		r.clients, len(reads), r.w.tail, heavyName, len(heavy),
		after.delta(before, "cache.hits"), after.delta(before, "cache.hits")+after.delta(before, "cache.misses"))
	return rep, nil
}

// heavyOp names the workload's heaviest operation class — the one
// heavy_p50_ms reports — and recognises its operations: the sweep where
// there are sweeps, the commit where there are writes, else the reads at
// the upper half of the ε range (heavyEps).
func (w *workload) heavyOp(in *inputs) (string, func(op) bool) {
	switch {
	case w.sweepEvery > 0:
		return "GET /cluster/sweep", func(o op) bool { return o.kind == opSweep }
	case w.writeEvery > 0:
		return "POST /edges", func(o op) bool { return o.kind == opPost }
	default:
		return "GET /cluster at eps>=0.5", func(o op) bool { return heavyEps[in.keys[o.idx].Eps] }
	}
}

// verifyChurn replays the acknowledged batches on the benchmark's own
// graph.Store and re-checks reads against the oracle at the epoch they
// were served from. Only reads with no commit in flight between send and
// receive have a single possible epoch; a sample of those, spread over the
// window, is checked. It returns how many, and fails the run when fewer
// than atLeast could be (quick runs are too short to promise that).
func (s *session) verifyChurn(logs [][]sample, rep *report, atLeast int) (int, error) {
	const maxEpochs, keysPerEpoch = 5, 6
	commits := s.acked.Load()
	byEpoch := map[uint64][]sample{}
	for _, log := range logs {
		for _, sm := range log {
			if sm.ok && sm.op.kind == opGet && sm.epochLo == sm.epochHi {
				byEpoch[sm.epochLo] = append(byEpoch[sm.epochLo], sm)
			}
		}
	}
	// Epochs to visit: evenly spaced from epoch 0 to the last commit.
	var visit []uint64
	for i := 0; i < maxEpochs; i++ {
		e := commits * uint64(i) / (maxEpochs - 1)
		if len(byEpoch[e]) > 0 && (len(visit) == 0 || visit[len(visit)-1] != e) {
			visit = append(visit, e)
		}
	}
	store := graph.NewStore(s.in.g)
	checked := 0
	for _, e := range visit {
		for store.Epoch() < e {
			if _, err := store.Commit(s.in.batches[store.Epoch()]); err != nil {
				return checked, fmt.Errorf("replaying batch %d: %w", store.Epoch(), err)
			}
		}
		ref := newReference(store.Graph())
		seen := map[int32]bool{}
		for _, sm := range byEpoch[e] {
			if seen[sm.op.idx] || len(seen) == keysPerEpoch {
				continue
			}
			seen[sm.op.idx] = true
			k := s.in.keys[sm.op.idx]
			res, err := ref.cluster(k.Eps, k.Mu)
			if err != nil {
				return checked, err
			}
			want := answerOf(res)
			if s.r.corrupt {
				want.Cores++
			}
			checked++
			if sm.got != want {
				rep.fail("epoch %d: GET /cluster %v = %+v, want %+v", e, k, sm.got, want)
			}
		}
	}
	if checked < atLeast && !s.r.quick {
		rep.fail("churn: only %d reads could be re-checked, want at least %d", checked, atLeast)
	}
	return checked, nil
}
