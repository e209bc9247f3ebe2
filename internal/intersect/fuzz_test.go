package intersect

import (
	"bytes"
	"sort"
	"testing"

	"ppscan/internal/simdef"
)

// FuzzKernelsAgree: for arbitrary inputs, every kernel — BlockMerge under
// each body this host can run — must agree with the plain-merge ground
// truth.
func FuzzKernelsAgree(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, uint8(3))
	f.Add([]byte{}, []byte{}, uint8(1))
	f.Add([]byte{9, 9, 9}, []byte{9}, uint8(2))
	// Lists at and around the 8- and 16-lane block widths: 0..n-1 against
	// the odd numbers below 2n, decided Sim by the last match.
	for _, n := range []int{15, 16, 17, 31, 32, 33} {
		f.Add(bytes.Repeat([]byte{0}, n), bytes.Repeat([]byte{1}, n), uint8(n/2+1))
	}
	// 300 against 5: 10, 61, 112, 163 and 214 all in 0..299, Sim at the
	// last; then the last moved to 364, past the long list's end.
	f.Add(bytes.Repeat([]byte{0}, 300), []byte{10, 50, 50, 50, 50}, uint8(6))
	f.Add(bytes.Repeat([]byte{0}, 300), []byte{10, 50, 50, 50, 200}, uint8(6))
	// 0 against the tail block {5, 6, 7}: its masked-off lanes read 0 and
	// must not count as a match (cn stays 4 < c = 5).
	f.Add([]byte{5, 0, 0}, []byte{0, 4, 0}, uint8(4))
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte, cRaw uint8) {
		a := ascending(aRaw)
		b := ascending(bRaw)
		c := int32(cRaw%80) + 1
		want := simdef.NSim
		if Count(a, b)+2 >= c {
			want = simdef.Sim
		}
		for _, k := range Kinds() {
			if got := CompSim(k, a, b, c); got != want {
				t.Fatalf("kernel %v: got %v want %v (c=%d, a=%v, b=%v)", k, got, want, c, a, b)
			}
		}
		for _, bd := range hostBodies() {
			restore := forceBody(bd)
			got := CompSim(BlockMerge, a, b, c)
			restore()
			if got != want {
				t.Fatalf("block-merge, %v body: got %v want %v (c=%d, a=%v, b=%v)", bd, got, want, c, a, b)
			}
		}
	})
}

// ascending decodes raw as gaps: each byte g puts the next element g+1
// past the previous one (the first at g), so every byte string is a
// strictly increasing list — the kernel precondition — of its own length.
func ascending(raw []byte) []int32 {
	out := make([]int32, len(raw))
	x := int32(-1)
	for i, g := range raw {
		x += int32(g) + 1
		out[i] = x
	}
	return out
}

// normalize turns raw bytes into a strictly increasing int32 slice (the
// kernel precondition: sorted, duplicate-free adjacency).
func normalize(raw []byte) []int32 {
	seen := map[int32]struct{}{}
	for _, x := range raw {
		seen[int32(x)] = struct{}{}
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
