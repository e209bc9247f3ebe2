//go:build amd64

package vec

import (
	"math/rand"
	"testing"
)

// Each assembly implementation is tested directly (the dispatcher prefers
// AVX512 when available, which would otherwise leave the AVX2 16-lane path
// unexercised on AVX512 machines).
func TestAsmImplementationsDirect(t *testing.T) {
	if !HasAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		var blk [16]int32
		x := int32(rng.Intn(64)) - 32
		for i := range blk {
			x += int32(rng.Intn(5))
			blk[i] = x
		}
		pivot := blk[0] + int32(rng.Intn(int(blk[15]-blk[0])+5)) - 2
		want := CountLess16(&blk, pivot)
		if got := countLess16AVX2(&blk, pivot); got != want {
			t.Fatalf("countLess16AVX2(%v, %d) = %d, want %d", blk, pivot, got, want)
		}
		if HasAVX512 {
			if got := countLess16AVX512(&blk, pivot); got != want {
				t.Fatalf("countLess16AVX512(%v, %d) = %d, want %d", blk, pivot, got, want)
			}
		}
	}
}

// The assembly forms must also handle unsorted blocks (mask semantics count
// every lane, not just a prefix).
func TestAsmUnsortedBlocks(t *testing.T) {
	if !HasAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	blk := [16]int32{5, -3, 100, 0, 7, 7, -50, 2, 9, 1, 1 << 30, -(1 << 30), 4, 6, 8, 3}
	for _, pivot := range []int32{-100, -1, 0, 3, 7, 101, 1 << 30} {
		if got, want := countLess16AVX2(&blk, pivot), CountLess16(&blk, pivot); got != want {
			t.Errorf("unsorted AVX2: pivot %d: %d vs %d", pivot, got, want)
		}
		if HasAVX512 {
			if got, want := countLess16AVX512(&blk, pivot), CountLess16(&blk, pivot); got != want {
				t.Errorf("unsorted AVX512: pivot %d: %d vs %d", pivot, got, want)
			}
		}
	}
}
