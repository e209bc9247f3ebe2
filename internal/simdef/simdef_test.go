package simdef

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseEpsilonValid(t *testing.T) {
	cases := []struct {
		in       string
		num, den uint64
	}{
		{"0.2", 1, 5},
		{"0.5", 1, 2},
		{"0.25", 1, 4},
		{"1", 1, 1},
		{"1.0", 1, 1},
		{"0.35", 7, 20},
		{".5", 1, 2},
		{"3/10", 3, 10},
		{"2/4", 1, 2},
		{"0.123456789", 123456789, 1000000000},
		{" 0.8 ", 4, 5},
	}
	for _, tc := range cases {
		e, err := ParseEpsilon(tc.in)
		if err != nil {
			t.Errorf("ParseEpsilon(%q): %v", tc.in, err)
			continue
		}
		if e.Num != tc.num || e.Den != tc.den {
			t.Errorf("ParseEpsilon(%q) = %d/%d, want %d/%d", tc.in, e.Num, e.Den, tc.num, tc.den)
		}
	}
}

func TestParseEpsilonInvalid(t *testing.T) {
	for _, bad := range []string{"", "0", "0.0", "1.1", "2", "-0.5", "abc", "0.1234567891", "1/0", "x/2", "2/x", "3/2"} {
		if _, err := ParseEpsilon(bad); err == nil {
			t.Errorf("ParseEpsilon(%q) should fail", bad)
		}
	}
}

func TestEpsilonFloatAndString(t *testing.T) {
	e := MustEpsilon("0.2")
	if math.Abs(e.Float()-0.2) > 1e-15 {
		t.Errorf("Float = %v", e.Float())
	}
	if e.String() != "1/5" {
		t.Errorf("String = %q", e.String())
	}
}

func TestMustEpsilonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustEpsilon should panic on bad input")
		}
	}()
	MustEpsilon("nope")
}

func TestEdgeSimString(t *testing.T) {
	if Unknown.String() != "Unknown" || Sim.String() != "Sim" || NSim.String() != "NSim" {
		t.Errorf("EdgeSim strings wrong")
	}
	if EdgeSim(42).String() == "" {
		t.Errorf("unknown EdgeSim should still stringify")
	}
}

func TestPredMatchesFloatDefinition(t *testing.T) {
	// Compare the exact predicate against the floating definition on values
	// far from the boundary (where float is trustworthy).
	eps := MustEpsilon("0.5")
	cases := []struct {
		cn, du, dv int32
		want       bool
	}{
		{2, 1, 1, true},    // 2 >= 0.5*2 = 1
		{1, 3, 3, false},   // 1 >= 0.5*4 = 2? no
		{2, 3, 3, true},    // 2 >= 2
		{5, 9, 9, true},    // 5 >= 5
		{4, 9, 9, false},   // 4 >= 5? no
		{10, 99, 99, true}, // 10 >= 50? no -> false actually
	}
	cases[5].want = false
	for _, tc := range cases {
		if got := eps.Pred(tc.cn, tc.du, tc.dv); got != tc.want {
			t.Errorf("Pred(cn=%d, du=%d, dv=%d) = %v, want %v", tc.cn, tc.du, tc.dv, got, tc.want)
		}
	}
}

func TestPredZeroAndNegativeCN(t *testing.T) {
	eps := MustEpsilon("0.2")
	if eps.Pred(0, 5, 5) {
		t.Errorf("cn=0 must be NSim")
	}
	if eps.Pred(-3, 5, 5) {
		t.Errorf("negative cn must be NSim")
	}
}

func TestMinCNDefinition(t *testing.T) {
	// MinCN must be the unique boundary of Pred.
	epsilons := []string{"0.1", "0.2", "0.35", "0.5", "0.6", "0.8", "0.9", "1", "0.123", "0.999"}
	rng := rand.New(rand.NewSource(1))
	for _, es := range epsilons {
		eps := MustEpsilon(es)
		for i := 0; i < 300; i++ {
			du := int32(rng.Intn(10000))
			dv := int32(rng.Intn(10000))
			c := eps.MinCN(du, dv)
			if c < 1 {
				t.Fatalf("eps=%s MinCN(%d,%d) = %d < 1", es, du, dv, c)
			}
			if !eps.Pred(c, du, dv) {
				t.Fatalf("eps=%s: Pred(MinCN)=false at du=%d dv=%d c=%d", es, du, dv, c)
			}
			if c > 1 && eps.Pred(c-1, du, dv) {
				t.Fatalf("eps=%s: Pred(MinCN-1)=true at du=%d dv=%d c=%d", es, du, dv, c)
			}
		}
	}
}

func TestMinCNAgainstCeilFloat(t *testing.T) {
	// For well-conditioned values, MinCN equals ceil(eps*sqrt((du+1)(dv+1))).
	eps := MustEpsilon("0.2")
	for du := int32(0); du < 60; du++ {
		for dv := int32(0); dv < 60; dv++ {
			want := int32(math.Ceil(0.2 * math.Sqrt(float64(du+1)*float64(dv+1))))
			// Watch for exact boundaries: recompute with the exact pred.
			got := eps.MinCN(du, dv)
			if got != want {
				// Disagreement is only legal when the float ceil is wrong,
				// i.e. when the true value is an exact integer boundary.
				if !eps.Pred(got, du, dv) || (got > 1 && eps.Pred(got-1, du, dv)) {
					t.Fatalf("MinCN(%d,%d) = %d, float says %d and exact check fails", du, dv, got, want)
				}
			}
		}
	}
}

func TestMinCNExactBoundary(t *testing.T) {
	// eps = 1/2, du = dv = 3: threshold = 0.5*sqrt(16) = 2 exactly.
	eps := MustEpsilon("0.5")
	if got := eps.MinCN(3, 3); got != 2 {
		t.Errorf("MinCN(3,3) = %d, want 2", got)
	}
	// eps = 1: threshold = sqrt((du+1)(dv+1)); with du=dv=8 -> 9 exactly.
	one := MustEpsilon("1")
	if got := one.MinCN(8, 8); got != 9 {
		t.Errorf("MinCN(8,8)@eps=1 = %d, want 9", got)
	}
}

func TestPruneResult(t *testing.T) {
	eps := MustEpsilon("0.8")
	// Very asymmetric degrees: min degree + 2 below threshold -> NSim.
	// du=1, dv=999: c = ceil(0.8*sqrt(2*1000)) = ceil(35.77) = 36 > 3.
	if got := eps.PruneResult(1, 999); got != NSim {
		t.Errorf("PruneResult(1,999) = %v, want NSim", got)
	}
	// Tiny degrees with small eps -> Sim without intersection.
	small := MustEpsilon("0.1")
	// du=dv=1: c = ceil(0.1*2) = 1 <= 2 -> Sim.
	if got := small.PruneResult(1, 1); got != Sim {
		t.Errorf("PruneResult(1,1) = %v, want Sim", got)
	}
	// Moderate case -> Unknown.
	if got := eps.PruneResult(10, 10); got != Unknown {
		t.Errorf("PruneResult(10,10) = %v, want Unknown", got)
	}
}

func TestPruneResultConsistentWithPred(t *testing.T) {
	// If PruneResult says Sim, then even cn=2 satisfies Pred; if NSim, then
	// even the max possible cn (min(du,dv)+2) fails Pred.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps := MustEpsilon([]string{"0.1", "0.3", "0.5", "0.7", "0.9"}[rng.Intn(5)])
		du := int32(rng.Intn(2000))
		dv := int32(rng.Intn(2000))
		switch eps.PruneResult(du, dv) {
		case Sim:
			return eps.Pred(2, du, dv)
		case NSim:
			maxCN := du + 2
			if dv+2 < maxCN {
				maxCN = dv + 2
			}
			return !eps.Pred(maxCN, du, dv)
		default:
			return true
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPruneCutMatchesPruneResult checks the cuts on every small degree
// pair, and that an ε too small to prune anything puts both upper cuts at
// MaxInt32.
func TestPruneCutMatchesPruneResult(t *testing.T) {
	for _, s := range []string{"0.1", "0.2", "0.35", "0.5", "0.7", "0.9", "1", "1/65536"} {
		e := MustEpsilon(s)
		for du := int32(0); du <= 150; du++ {
			c := e.PruneCut(du)
			for dv := int32(0); dv <= 300; dv++ {
				if got, want := c.Result(dv), e.PruneResult(du, dv); got != want {
					t.Fatalf("eps=%s du=%d dv=%d: cut %+v gives %v, PruneResult %v", s, du, dv, c, got, want)
				}
			}
		}
	}
	c := MustEpsilon("1/65536").PruneCut(0)
	if c.nsimBelow != 0 || c.nsimFrom != math.MaxInt32 || c.simBelow != math.MaxInt32 {
		t.Errorf("tiny eps cut = %+v, want {0 MaxInt32 MaxInt32}", c)
	}
}

func TestPredMonotoneInCN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps := MustEpsilon([]string{"0.2", "0.4", "0.6", "0.8", "1"}[rng.Intn(5)])
		du := int32(rng.Intn(5000))
		dv := int32(rng.Intn(5000))
		prev := false
		for cn := int32(0); cn <= 80; cn++ {
			cur := eps.Pred(cn, du, dv)
			if prev && !cur {
				return false // must never flip from true back to false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPredLargeDegreesNoOverflow(t *testing.T) {
	eps := MustEpsilon("0.123456789")
	huge := int32(math.MaxInt32 - 1)
	// Must not panic or overflow; exact value checked via MinCN boundary.
	c := eps.MinCN(huge, huge)
	if !eps.Pred(c, huge, huge) || eps.Pred(c-1, huge, huge) {
		t.Errorf("MinCN boundary broken at int32 max degrees (c=%d)", c)
	}
	want := 0.123456789 * (float64(huge) + 1)
	if math.Abs(float64(c)-want) > 2 {
		t.Errorf("MinCN at max degree = %d, float estimate %.0f", c, want)
	}
}

func TestPredPAgreesWithPred(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps := MustEpsilon([]string{"0.2", "0.4", "0.6", "0.8", "1"}[rng.Intn(5)])
		du := int32(rng.Intn(5000))
		dv := int32(rng.Intn(5000))
		cn := int32(rng.Intn(200))
		p := (uint64(du) + 1) * (uint64(dv) + 1)
		return eps.Pred(cn, du, dv) == eps.PredP(cn, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if MustEpsilon("0.5").PredP(0, 100) {
		t.Errorf("cn=0 must fail PredP")
	}
}

func TestCompareSimValues(t *testing.T) {
	// sigma = cn / sqrt(p).
	cases := []struct {
		cn1  int32
		p1   uint64
		cn2  int32
		p2   uint64
		want int
	}{
		{1, 4, 1, 4, 0},   // 0.5 vs 0.5
		{1, 4, 1, 9, 1},   // 0.5 vs 1/3
		{1, 9, 1, 4, -1},  // 1/3 vs 0.5
		{2, 16, 1, 4, 0},  // 0.5 vs 0.5
		{3, 9, 2, 4, 0},   // 1 vs 1
		{3, 10, 3, 9, -1}, // 3/sqrt10 < 1
		{10, 99, 10, 100, 1},
	}
	for _, tc := range cases {
		if got := CompareSimValues(tc.cn1, tc.p1, tc.cn2, tc.p2); got != tc.want {
			t.Errorf("CompareSimValues(%d,%d,%d,%d) = %d, want %d",
				tc.cn1, tc.p1, tc.cn2, tc.p2, got, tc.want)
		}
		if got := CompareSimValues(tc.cn2, tc.p2, tc.cn1, tc.p1); got != -tc.want {
			t.Errorf("CompareSimValues antisymmetry broken for %+v", tc)
		}
	}
}

func TestCompareSimValuesMatchesFloat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cn1 := int32(rng.Intn(1000) + 1)
		cn2 := int32(rng.Intn(1000) + 1)
		p1 := uint64(rng.Intn(1<<20)) + 1
		p2 := uint64(rng.Intn(1<<20)) + 1
		s1 := float64(cn1) / math.Sqrt(float64(p1))
		s2 := float64(cn2) / math.Sqrt(float64(p2))
		got := CompareSimValues(cn1, p1, cn2, p2)
		// Only check when floats are clearly apart.
		if math.Abs(s1-s2) < 1e-9*(s1+s2) {
			return true
		}
		if s1 > s2 {
			return got == 1
		}
		return got == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNewThreshold(t *testing.T) {
	th, err := NewThreshold("0.6", 5)
	if err != nil {
		t.Fatalf("NewThreshold: %v", err)
	}
	if th.Mu != 5 || th.Eps.Num != 3 || th.Eps.Den != 5 {
		t.Errorf("threshold = %+v", th)
	}
	if _, err := NewThreshold("0.6", 0); err == nil {
		t.Errorf("mu=0 should fail")
	}
	if _, err := NewThreshold("bad", 5); err == nil {
		t.Errorf("bad eps should fail")
	}
}

func BenchmarkPred(b *testing.B) {
	eps := MustEpsilon("0.2")
	var acc int
	for i := 0; i < b.N; i++ {
		if eps.Pred(int32(i&1023), 500, 700) {
			acc++
		}
	}
	_ = acc
}

func BenchmarkMinCN(b *testing.B) {
	eps := MustEpsilon("0.35")
	var acc int32
	for i := 0; i < b.N; i++ {
		acc += eps.MinCN(int32(i&4095), 1000)
	}
	_ = acc
}
