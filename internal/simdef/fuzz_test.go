package simdef

import "testing"

// FuzzParseEpsilon: arbitrary strings must never panic; accepted values
// must be reduced rationals in (0, 1] that round-trip consistently.
func FuzzParseEpsilon(f *testing.F) {
	for _, s := range []string{"0.2", "1", "3/7", "0.999999999", "", "x", "1.0000001", "0/0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := ParseEpsilon(s)
		if err != nil {
			return
		}
		if e.Num == 0 || e.Den == 0 || e.Num > e.Den {
			t.Fatalf("accepted out-of-range epsilon %q -> %d/%d", s, e.Num, e.Den)
		}
		if g := gcd(e.Num, e.Den); g != 1 {
			t.Fatalf("epsilon %q not reduced: %d/%d", s, e.Num, e.Den)
		}
		// The printed rational must re-parse to the same value.
		e2, err := ParseEpsilon(e.String())
		if err != nil || e2 != e {
			t.Fatalf("round trip of %q via %q failed: %v", s, e.String(), err)
		}
	})
}

// FuzzMinCNBoundary: MinCN must be the exact boundary of Pred for
// arbitrary degrees and epsilons and equal the exact correction loop's
// answer whether or not its float fast path was taken, PruneResult must be
// the rule that boundary gives, and PruneCut's cuts must give PruneResult.
// ε runs down to 1/65536, small enough to put the cuts at MaxInt32;
// testdata/fuzz holds the edge seeds.
func FuzzMinCNBoundary(f *testing.F) {
	f.Add(uint16(1), uint16(5), uint32(10), uint32(20))
	// ε = 1/2, du = dv = 3: σ = 2/√16 = ε exactly at cn = 2.
	f.Add(uint16(0), uint16(1), uint32(3), uint32(3))
	f.Fuzz(func(t *testing.T, numRaw, denRaw uint16, duRaw, dvRaw uint32) {
		den := uint64(denRaw) + 1
		num := uint64(numRaw)%den + 1
		g := gcd(num, den)
		e := Epsilon{Num: num / g, Den: den / g}
		du := int32(duRaw % (1 << 28))
		dv := int32(dvRaw % (1 << 28))
		c := e.MinCN(du, dv)
		if c < 1 {
			t.Fatalf("MinCN = %d < 1", c)
		}
		if !e.Pred(c, du, dv) {
			t.Fatalf("Pred(MinCN) false: eps=%v du=%d dv=%d c=%d", e, du, dv, c)
		}
		if c > 1 && e.Pred(c-1, du, dv) {
			t.Fatalf("Pred(MinCN-1) true: eps=%v du=%d dv=%d c=%d", e, du, dv, c)
		}
		if exact := e.minCNExact(du, dv); c != exact {
			t.Fatalf("MinCN = %d, the exact loop gives %d: eps=%v du=%d dv=%d", c, exact, e, du, dv)
		}
		want := Unknown
		if min(du, dv)+2 < c {
			want = NSim
		} else if c <= 2 {
			want = Sim
		}
		if got := e.PruneResult(du, dv); got != want {
			t.Fatalf("PruneResult = %v, MinCN rule gives %v: eps=%v du=%d dv=%d c=%d", got, want, e, du, dv, c)
		}
		if got := e.PruneCut(du).Result(dv); got != want {
			t.Fatalf("PruneCut(%d).Result(%d) = %v, PruneResult gives %v: eps=%v cut=%+v", du, dv, got, want, e, e.PruneCut(du))
		}
	})
}
