// Package simdef implements the structural-similarity arithmetic shared by
// every clustering algorithm in this module (Definitions 2.2, 3.9 and the
// similarity-predicate pruning rules of the ppSCAN paper).
//
// The similarity predicate is
//
//	σ_ε(u,v)  ⇔  |Γ(u) ∩ Γ(v)| ≥ ⌈ε·√((d[u]+1)(d[v]+1))⌉
//
// Floating-point evaluation of the right-hand side is not exact and would
// make different algorithms (or different set-intersection kernels) disagree
// on borderline edges, breaking the paper's "exact clustering" guarantee.
// We therefore parse ε from its decimal representation into a reduced
// rational a/b and evaluate the predicate entirely in integers:
//
//	cn ≥ ⌈ε·√((du+1)(dv+1))⌉  ⇔  cn ≥ 1  ∧  cn²·b² ≥ a²·(du+1)(dv+1)
//
// (cn is always ≥ 2 for adjacent vertices, so the cn ≥ 1 guard is free).
// The products are compared in 128 bits via math/bits so no overflow can
// occur for any int32 degree and any ε with up to 9 decimal digits.
package simdef

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// EdgeSim is the tri-state similarity label of a directed edge offset
// (Definition 2.12 plus the Unknown state used by pruning).
type EdgeSim int32

const (
	// Unknown means the similarity of the edge has not been determined.
	Unknown EdgeSim = iota
	// Sim means the structural similarity predicate holds.
	Sim
	// NSim means the structural similarity predicate does not hold.
	NSim
)

// String implements fmt.Stringer.
func (s EdgeSim) String() string {
	switch s {
	case Unknown:
		return "Unknown"
	case Sim:
		return "Sim"
	case NSim:
		return "NSim"
	default:
		return fmt.Sprintf("EdgeSim(%d)", int32(s))
	}
}

// Epsilon is the similarity threshold ε represented as the reduced rational
// Num/Den with 0 < ε ≤ 1.
type Epsilon struct {
	Num, Den uint64
}

// ParseEpsilon parses a decimal string such as "0.2", "0.35", "1", or a
// rational such as "1/5" into an exact Epsilon. The value must satisfy
// 0 < ε ≤ 1.
func ParseEpsilon(s string) (Epsilon, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Epsilon{}, fmt.Errorf("simdef: empty epsilon")
	}
	var num, den uint64
	if slash := strings.IndexByte(s, '/'); slash >= 0 {
		a, err := strconv.ParseUint(s[:slash], 10, 32)
		if err != nil {
			return Epsilon{}, fmt.Errorf("simdef: bad epsilon numerator %q: %v", s[:slash], err)
		}
		b, err := strconv.ParseUint(s[slash+1:], 10, 32)
		if err != nil {
			return Epsilon{}, fmt.Errorf("simdef: bad epsilon denominator %q: %v", s[slash+1:], err)
		}
		num, den = a, b
	} else {
		intPart := s
		fracPart := ""
		if dot := strings.IndexByte(s, '.'); dot >= 0 {
			intPart, fracPart = s[:dot], s[dot+1:]
		}
		if len(fracPart) > 9 {
			return Epsilon{}, fmt.Errorf("simdef: epsilon %q has more than 9 decimal digits", s)
		}
		if intPart == "" {
			intPart = "0"
		}
		ip, err := strconv.ParseUint(intPart, 10, 32)
		if err != nil {
			return Epsilon{}, fmt.Errorf("simdef: bad epsilon %q: %v", s, err)
		}
		den = 1
		for range fracPart {
			den *= 10
		}
		var fp uint64
		if fracPart != "" {
			fp, err = strconv.ParseUint(fracPart, 10, 64)
			if err != nil {
				return Epsilon{}, fmt.Errorf("simdef: bad epsilon %q: %v", s, err)
			}
		}
		num = ip*den + fp
	}
	if den == 0 {
		return Epsilon{}, fmt.Errorf("simdef: epsilon %q has zero denominator", s)
	}
	if num == 0 || num > den {
		return Epsilon{}, fmt.Errorf("simdef: epsilon %q out of range (0, 1]", s)
	}
	g := gcd(num, den)
	return Epsilon{Num: num / g, Den: den / g}, nil
}

// MustEpsilon is ParseEpsilon that panics on error; for tests and tables of
// known-good constants.
func MustEpsilon(s string) Epsilon {
	e, err := ParseEpsilon(s)
	if err != nil {
		panic(err)
	}
	return e
}

// Float returns the floating-point value of ε.
func (e Epsilon) Float() float64 {
	return float64(e.Num) / float64(e.Den)
}

// Cmp compares e with f exactly, returning -1, 0 or +1. Both sides are
// ParseEpsilon values (numerator and denominator below 2³²), so the
// cross products fit in 64 bits.
func (e Epsilon) Cmp(f Epsilon) int {
	return cmp.Compare(e.Num*f.Den, f.Num*e.Den)
}

// String formats ε as its reduced rational.
func (e Epsilon) String() string {
	return fmt.Sprintf("%d/%d", e.Num, e.Den)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Pred reports whether an intersection count of cn = |Γ(u) ∩ Γ(v)| makes u
// and v structurally similar, given their degrees du = d[u], dv = d[v].
// Exact: compares cn²·Den² against Num²·(du+1)(dv+1) in 128-bit arithmetic.
func (e Epsilon) Pred(cn int32, du, dv int32) bool {
	return e.predI64(int64(cn), du, dv)
}

// mul3 multiplies three uint64 values into a 128-bit (hi, lo) result.
// Preconditions (guaranteed by ParseEpsilon limits and int32 degrees): the
// full product fits in 128 bits.
func mul3(a, b, c uint64) (hi, lo uint64) {
	h1, l1 := bits.Mul64(a, b)
	// (h1*2^64 + l1) * c = h1*c*2^64 + l1*c
	h2, l2 := bits.Mul64(l1, c)
	hi = h1*c + h2
	lo = l2
	return hi, lo
}

// MinCN returns the smallest intersection count t with Pred(t, du, dv),
// i.e. ⌈ε·√((du+1)(dv+1))⌉ computed exactly. This is the early-termination
// threshold c of Algorithm 6 and Definition 3.9.
//
// The float estimate est is five correctly rounded operations on exact
// inputs, so its relative error is below 2⁻⁵⁰. When est is more than
// est·2⁻⁴⁰ away from both ⌈est⌉ and ⌈est⌉−1, the true value lies strictly
// between them and ⌈est⌉ is exact; only a near-integer estimate pays for
// minCNExact's 128-bit corrections.
func (e Epsilon) MinCN(du, dv int32) int32 {
	est := e.minCNEstimate(du, dv)
	c := math.Ceil(est)
	if margin := est * 0x1p-40; c-est > margin && est-(c-1) > margin {
		return clampI32(int64(c))
	}
	return e.minCNExact(du, dv)
}

// minCNEstimate is the float ε·√(du+1)·√(dv+1).
func (e Epsilon) minCNEstimate(du, dv int32) float64 {
	return e.Float() * math.Sqrt(float64(du)+1) * math.Sqrt(float64(dv)+1)
}

// minCNExact is MinCN by the exact predicate alone: it starts from the
// float estimate and corrects it one step at a time. The float is within
// 1 ulp of the true value, so at most a couple of steps run.
func (e Epsilon) minCNExact(du, dv int32) int32 {
	t := int64(e.minCNEstimate(du, dv))
	if t < 1 {
		t = 1
	}
	for !e.predI64(t, du, dv) {
		t++
	}
	for t > 1 && e.predI64(t-1, du, dv) {
		t--
	}
	return clampI32(t)
}

func (e Epsilon) predI64(cn int64, du, dv int32) bool {
	if cn <= 0 {
		return false
	}
	lhsHi, lhsLo := mul3(uint64(cn), uint64(cn), e.Den*e.Den)
	rhsHi, rhsLo := mul3(e.Num*e.Num, uint64(du)+1, uint64(dv)+1)
	if lhsHi != rhsHi {
		return lhsHi > rhsHi
	}
	return lhsLo >= rhsLo
}

func clampI32(x int64) int32 {
	if x > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(x)
}

// PredP is Pred with the degree product p = (du+1)·(dv+1) precomputed, for
// index structures that store p (or its factors) per edge.
func (e Epsilon) PredP(cn int32, p uint64) bool {
	if cn <= 0 {
		return false
	}
	lhsHi, lhsLo := mul3(uint64(cn), uint64(cn), e.Den*e.Den)
	rhsHi, rhsLo := bits.Mul64(e.Num*e.Num, p)
	if lhsHi != rhsHi {
		return lhsHi > rhsHi
	}
	return lhsLo >= rhsLo
}

// CompareSimValues exactly compares two structural similarity values
// cn1/√p1 and cn2/√p2 (cn = |Γ∩Γ|, p = (d+1)(d+1) products), returning
// -1, 0 or +1. Used to sort an index's neighbor lists by similarity
// without any floating-point error: it compares cn1²·p2 with cn2²·p1 in
// 128 bits.
func CompareSimValues(cn1 int32, p1 uint64, cn2 int32, p2 uint64) int {
	l1, l0 := mul3(uint64(cn1), uint64(cn1), p2)
	r1, r0 := mul3(uint64(cn2), uint64(cn2), p1)
	switch {
	case l1 != r1:
		if l1 > r1 {
			return 1
		}
		return -1
	case l0 != r0:
		if l0 > r0 {
			return 1
		}
		return -1
	default:
		return 0
	}
}

// PruneResult classifies an edge by the similarity-predicate pruning rules
// (§3.2.2 of the paper): some edges can be labeled Sim or NSim from their
// endpoint degrees alone, without any set intersection.
//
//   - NSim when min(d[u], d[v]) + 2 < ⌈ε·√((d[u]+1)(d[v]+1))⌉
//   - Sim  when 2 ≥ ⌈ε·√((d[u]+1)(d[v]+1))⌉
//   - Unknown otherwise.
//
// Pred is monotone in cn and MinCN is its boundary, so each rule is one
// exact predicate on the largest and smallest possible count — no square
// root and no search for the boundary itself.
func (e Epsilon) PruneResult(du, dv int32) EdgeSim {
	if !e.predI64(int64(min(du, dv))+2, du, dv) {
		return NSim
	}
	if e.predI64(2, du, dv) {
		return Sim
	}
	return Unknown
}

// Cut is PruneResult(du, ·) for one du as three exact degree cuts, so that
// a vertex classifies each neighbour with two comparisons and no 128-bit
// product. Build it with PruneCut.
type Cut struct {
	nsimBelow int32 // NSim for dv < nsimBelow; nsimBelow ≤ du
	nsimFrom  int32 // NSim for dv ≥ nsimFrom; nsimFrom ≥ du
	simBelow  int32 // otherwise Sim for dv < simBelow
}

// Result is PruneResult(du, dv) for the du the cut was built for and any
// degree 0 ≤ dv < MaxInt32.
func (c Cut) Result(dv int32) EdgeSim {
	// One unsigned comparison tests dv ∉ [nsimBelow, nsimFrom).
	if uint32(dv-c.nsimBelow) >= uint32(c.nsimFrom-c.nsimBelow) {
		return NSim
	}
	if dv < c.simBelow {
		return Sim
	}
	return Unknown
}

// PruneCut returns the cuts of PruneResult(du, ·). The rules are monotone
// in dv on [0, du) and on [du, ∞): with k = ε²(du+1),
//
//   - NSim below du while (dv+2)²/(dv+1) < k, which rises with dv;
//   - NSim from du on once (du+2)²/(dv+1) < k, which falls with dv;
//   - Sim while 4/(dv+1) ≥ k, which falls with dv.
//
// So each cut is the first degree where a monotone predicate flips. A
// float estimate finds it and exact predI64 steps correct it; a cut past
// MaxInt32 is MaxInt32.
func (e Epsilon) PruneCut(du int32) Cut {
	k := e.Float() * e.Float() * (float64(du) + 1)
	// (y+1)²/y = k for y = dv+1 has its larger root at
	// ((k-2) + √((k-2)²-4))/2 when k > 4; below that no dv is NSim.
	est := 0.0
	if k > 4 {
		est = ((k-2)+math.Sqrt((k-2)*(k-2)-4))/2 - 1
	}
	return Cut{
		nsimBelow: firstFalse(0, int64(du), est, func(dv int64) bool {
			return !e.predI64(dv+2, du, int32(dv))
		}),
		nsimFrom: firstFalse(int64(du), math.MaxInt32, (float64(du)+2)*(float64(du)+2)/k, func(dv int64) bool {
			return e.predI64(int64(du)+2, du, int32(dv))
		}),
		simBelow: firstFalse(0, math.MaxInt32, 4/k, func(dv int64) bool {
			return e.predI64(2, du, int32(dv))
		}),
	}
}

// firstFalse returns the least t in [lo, hi) with !ok(t), or hi when ok
// holds on all of it; ok must be true and then false on [lo, hi). est is a
// guess at the answer, corrected one step at a time.
func firstFalse(lo, hi int64, est float64, ok func(int64) bool) int32 {
	t := lo
	if est >= float64(hi) {
		t = hi
	} else if est > float64(lo) {
		t = int64(est)
	}
	for t > lo && !ok(t-1) {
		t--
	}
	for t < hi && ok(t) {
		t++
	}
	return int32(t)
}

// Threshold bundles ε and µ, the two SCAN parameters.
type Threshold struct {
	Eps Epsilon
	Mu  int32
}

// NewThreshold validates and builds a Threshold. µ must be at least 1.
func NewThreshold(eps string, mu int32) (Threshold, error) {
	e, err := ParseEpsilon(eps)
	if err != nil {
		return Threshold{}, err
	}
	if mu < 1 {
		return Threshold{}, fmt.Errorf("simdef: mu = %d, want >= 1", mu)
	}
	return Threshold{Eps: e, Mu: mu}, nil
}
