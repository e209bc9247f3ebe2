// GET /cluster/sweep — parameter-sweep serving: compute similarities
// once, stream one clustering per ε step.
//
// The paper's own motivation for structural clustering is interactive
// (ε, µ) exploration, and the expensive similarity computation does not
// depend on either parameter. A sweep therefore extracts every requested
// ε from its epoch's GS*-Index (Server.similarity), building that index
// once per epoch if the epoch has none yet and leaving it for every later
// request, on a single pooled workspace, emitting one NDJSON line per step
// as soon as it is ready.
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
	"strconv"
	"strings"
	"time"

	"ppscan/internal/simdef"
)

// DefaultSweepMaxSteps bounds the ε grid a single sweep request may
// stream unless overridden with WithSweepMaxSteps: a runaway grid
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

// handleSweep streams one clusterSummary NDJSON line per ε step. It is
// the resolve pipeline with the similarity artifact hoisted out of the
// loop: parse, one similarity (building the epoch's index if it has none),
// then per gridpoint the response cache, extraction and the cache insert.
// The response is chunked and flushed per step, so a client reads the
// first clustering while later ones are still being extracted; client
// disconnect or deadline expiry aborts between (and inside) steps, and
// the single deferred workspace Release is the only return path — an
// abandoned stream can neither leak the workspace nor release it twice.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	// Every gridpoint is validated up front: a bad ε must be a 400, not a
	// mid-stream error line.
	epsList, mu, _, err := s.params(r, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	withMembers := q.Get("members") == "true"

	// One state load pins the whole sweep to a single snapshot: every
	// step, cache key, and workspace sizing below derives from st, so a
	// concurrent mutation batch cannot tear the stream across epochs.
	st := s.state.Load()
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	t0 := time.Now()
	ix, release, err := s.similarity(ctx, st, true)
	if err != nil {
		s.writeResolveError(w, err)
		return
	}
	defer release()

	// One pooled workspace serves every step, grow-only across the grid.
	ws := s.pool.Acquire(int(st.g.NumVertices()), int(st.g.NumEdges()))
	defer s.pool.Release(ws)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wrote := false
	for _, eps := range epsList {
		// Each gridpoint goes through the shared response cache under the
		// key every extracted answer uses (see keyFor): a sweep hits entries
		// earlier requests left behind and warms the cache for the
		// drill-down /cluster queries that typically follow a sweep, which
		// extract from the same epoch's index.
		key := s.keyFor(st, eps, mu, "", true)
		res, hit := s.cache.get(key)
		if !hit {
			ts := time.Now()
			res, err = s.answer(ctx, st, key, ix, ws)
			if err != nil {
				if ctx.Err() != nil {
					s.sweepDisconnects.Inc()
				}
				if !wrote {
					s.writeResolveError(w, err)
				} else {
					// Mid-stream there is no status left to send; emit a
					// terminal error line and stop.
					_ = enc.Encode(map[string]string{"error": err.Error()})
				}
				return
			}
			s.sweepStepNs.Observe(time.Since(ts).Nanoseconds())
		}
		s.sweepSteps.Inc()
		_ = enc.Encode(summarize(eps, mu, res, withMembers))
		wrote = true
		if flusher != nil {
			flusher.Flush()
		}
	}
	// A slow sweep is a tail-latency event like any other: retain it with
	// the grid spec as the parameter signature.
	s.exemplars.offer(exemplar{
		Epoch: st.epoch(), Eps: q.Get("eps"), Mu: mu, Algo: "sweep", Duration: time.Since(t0),
	}, nil, nil)
}
