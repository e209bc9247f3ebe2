// GET /cluster/sweep — parameter-sweep serving: compute similarities
// once, answer one clustering per ε step.
//
// The paper's own motivation for structural clustering is interactive
// (ε, µ) exploration, and the expensive similarity computation does not
// depend on either parameter. A sweep therefore extracts its ε grid from
// its epoch's GS*-Index (Server.similarity), building that index once per
// epoch if the epoch has none yet and leaving it for every later request,
// exactly as a /cluster miss does.
// The gridpoints the response cache lacks are extracted on one pooled
// workspace as one incremental sweep from the largest ε down, each step
// extending the previous one's union-find (gsindex.SweepWorkspace). The
// NDJSON lines follow in the request's order, so the first line waits for
// the last step.
//
// The ε grid is parsed with exact integer decimal arithmetic: "0.2:0.8:
// 0.05" generates the exact decimal strings "0.2", "0.25", ..., "0.8",
// never float-accumulated approximations, so every step agrees
// bit-for-bit with a direct /cluster request at the same ε.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"ppscan"
	"ppscan/internal/simdef"
)

// DefaultSweepMaxSteps bounds the ε grid a single sweep request may
// answer unless overridden with WithSweepMaxSteps: a runaway grid
// ("0.0001:1:0.0001") would otherwise hold its workspace and admission
// slot for 10⁴ extractions.
const DefaultSweepMaxSteps = 256

// parseSweepEps expands the eps specification into exact decimal epsilon
// strings: either a range "start:end:step" (inclusive endpoints, decimal
// literals), a comma list "0.2,0.35,0.5", or a single value. At most max
// steps, each one an ε simdef.ParseEpsilon accepts.
func parseSweepEps(spec string, max int) ([]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("missing eps parameter (range start:end:step, comma list, or single value)")
	}
	var out []string
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad eps range %q, want start:end:step", spec)
		}
		a, as, err := parseDec(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad eps range start %q: %w", parts[0], err)
		}
		b, bs, err := parseDec(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad eps range end %q: %w", parts[1], err)
		}
		st, ss, err := parseDec(parts[2])
		if err != nil {
			return nil, fmt.Errorf("bad eps range step %q: %w", parts[2], err)
		}
		// ε is a similarity threshold in [0, 1], so reject larger operands
		// BEFORE rescaling: every gridpoint of such a range would fail
		// threshold validation anyway, and the bound guarantees each
		// rescaled operand stays ≤ 10^scale ≤ 10^15, so none of the integer
		// arithmetic below can overflow int64.
		if a > pow10(as) || b > pow10(bs) || st > pow10(ss) {
			return nil, fmt.Errorf("bad eps range %q: start, end and step must lie in [0, 1]", spec)
		}
		// Rescale all three to the finest scale so the grid walk is exact
		// integer arithmetic.
		scale := as
		if bs > scale {
			scale = bs
		}
		if ss > scale {
			scale = ss
		}
		a *= pow10(scale - as)
		b *= pow10(scale - bs)
		st *= pow10(scale - ss)
		if st <= 0 {
			return nil, fmt.Errorf("eps range step must be > 0")
		}
		if a > b {
			return nil, fmt.Errorf("eps range start %s > end %s", parts[0], parts[1])
		}
		steps := (b-a)/st + 1
		if steps > int64(max) {
			return nil, fmt.Errorf("eps range %q has %d steps, exceeding the per-request bound %d (-sweep-max-steps)", spec, steps, max)
		}
		out = make([]string, 0, steps)
		// Walk by index, not by accumulating a value: the iteration count is
		// then exactly the validated steps, so the loop is bounded even for
		// operands an accumulating `v += st` could overflow past b on.
		for i := int64(0); i < steps; i++ {
			out = append(out, formatDec(a+i*st, scale))
		}
	} else if out = strings.Split(spec, ","); len(out) > max {
		return nil, fmt.Errorf("eps list has %d values, exceeding the per-request bound %d (-sweep-max-steps)", len(out), max)
	}
	for _, e := range out {
		if _, err := simdef.ParseEpsilon(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseDec parses a non-negative decimal literal into value × 10⁻ˢᶜᵃˡᵉ.
// Exactness matters: ε is thresholded with exact rational arithmetic
// downstream, so the grid must be generated in integer space — a
// float-accumulated 0.30000000000000004 would miss the exact gridpoint.
func parseDec(s string) (value int64, scale int, err error) {
	intPart, frac, _ := strings.Cut(s, ".")
	digits := intPart + frac
	if digits == "" || len(digits) > 15 || strings.ContainsAny(s, "+-") {
		return 0, 0, fmt.Errorf("want a plain decimal like 0.05")
	}
	v, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("want a plain decimal like 0.05")
	}
	return v, len(frac), nil
}

// pow10 returns 10ⁿ for the small scale deltas parseSweepEps needs.
func pow10(n int) int64 {
	p := int64(1)
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}

// formatDec renders value × 10⁻ˢᶜᵃˡᵉ as a minimal decimal string
// ("0.25", "0.3" — trailing zeros trimmed, so the string matches what a
// user would type at /cluster and the response-cache keys agree; see
// handleSweep for the actual cache wiring).
func formatDec(v int64, scale int) string {
	s := strconv.FormatInt(v, 10)
	if scale == 0 {
		return s
	}
	for len(s) <= scale {
		s = "0" + s
	}
	whole, frac := s[:len(s)-scale], s[len(s)-scale:]
	frac = strings.TrimRight(frac, "0")
	if frac == "" {
		return whole
	}
	return whole + "." + frac
}

// handleSweep answers one clusterSummary NDJSON line per ε gridpoint,
// in the request's order. It is the resolve pipeline with the similarity
// artifact hoisted out of the loop: parse, one similarity (building the
// epoch's index if it has none), the response cache per distinct exact ε,
// then one incremental index sweep over the missing gridpoints from the
// largest ε down, each step cloned into the cache. Every step is computed
// before the first byte is written, so any failure — a client disconnect
// or deadline expiry included — is a status via writeResolveError, and
// the single deferred workspace Release is the only return path.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	// Every gridpoint is validated up front: a bad ε is a 400 before any
	// work.
	q := r.URL.Query()
	epsList, mu, err := s.params(q, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	withMembers := q.Get("members") == "true"

	// One state load pins the whole sweep to a single snapshot: every
	// step, cache key, and workspace sizing below derives from st, so a
	// concurrent mutation batch cannot tear the response across epochs.
	st := s.state.Load()
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	t0 := time.Now()
	ix, build, release, err := s.similarity(ctx, st)
	if err != nil {
		s.writeResolveError(w, err)
		return
	}
	defer release()
	if ix == nil {
		// A -shards server's fleet answers /cluster misses, never a grid:
		// the sweep builds the epoch's index under its slot all the same.
		if ix, build, err = s.epochIndex(ctx, st); err != nil {
			s.writeResolveError(w, err)
			return
		}
	}

	// Each distinct exact ε goes through the shared response cache once,
	// under the key every answer uses (see keyFor): a sweep hits
	// entries earlier requests left behind and warms the cache for the
	// drill-down /cluster queries that typically follow a sweep.
	keys := make([]cacheKey, len(epsList))
	sums := make(map[cacheKey]clusterSummary, len(epsList))
	var missing []cacheKey
	for i, eps := range epsList {
		k := keyFor(st, eps, mu)
		keys[i] = k
		if _, seen := sums[k]; seen {
			continue
		}
		if res, hit := s.cache.get(k); hit {
			sums[k] = summarize(eps, mu, res, withMembers)
		} else {
			sums[k] = clusterSummary{} // its sweep step fills it in
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		slices.SortFunc(missing, func(a, b cacheKey) int { return b.eps.Cmp(a.eps) })
		epsDesc := make([]simdef.Epsilon, len(missing))
		for i, k := range missing {
			epsDesc[i] = k.eps
		}
		// One pooled workspace carries the sweep state across the steps.
		ws := s.pool.Acquire(int(st.g.NumVertices()), int(st.g.NumEdges()))
		defer s.pool.Release(ws)
		ts := time.Now()
		err = ix.SweepWorkspace(ctx, epsDesc, int32(mu), ws, func(i int, res *ppscan.Result) {
			res = res.Clone() // the next step overwrites ws's buffers
			s.cache.add(missing[i], res)
			sums[missing[i]] = summarize("", mu, res, withMembers)
			s.sweepStepNs.Observe(time.Since(ts).Nanoseconds())
			ts = time.Now()
		})
		if err != nil {
			if ctx.Err() != nil {
				s.sweepDisconnects.Inc()
			}
			s.writeResolveError(w, err)
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i, eps := range epsList {
		line := sums[keys[i]]
		line.Eps = eps
		s.sweepSteps.Inc()
		_ = enc.Encode(line)
	}
	// A slow sweep is a tail-latency event like any other: retain it with
	// the grid spec as the parameter signature.
	s.exemplars.offer(exemplar{
		Epoch: st.epoch(), Eps: q.Get("eps"), Mu: mu, Duration: time.Since(t0), Build: build,
	}, nil)
}
