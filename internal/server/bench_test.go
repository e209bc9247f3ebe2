package server

import (
	"context"
	"testing"

	"ppscan/internal/gen"
)

// BenchmarkServerSteadyState measures the warm miss path: resolve with a
// full cache miss every iteration (the cache is shrunk to one entry and
// two parameter sets alternate), so each request extracts from the
// epoch's index on a pooled workspace and clones the result out. Run with
// -benchmem: allocs/op is dominated by the result clone and the
// response-cache entry — the extraction scratch itself is pooled.
func BenchmarkServerSteadyState(b *testing.B) {
	g := gen.Roll(20_000, 16, 5)
	s := New(g, 4).WithCacheSize(1).WithAdmission(2, 0)
	ctx := context.Background()

	// Warm both parameter sets: the first builds the epoch's index, and
	// every workspace in rotation is grown.
	for _, eps := range []string{"0.5", "0.6"} {
		if _, err := s.resolve(ctx, s.state.Load(), eps, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eps := "0.5"
		if i%2 == 1 {
			eps = "0.6"
		}
		if _, err := s.resolve(ctx, s.state.Load(), eps, 4); err != nil {
			b.Fatal(err)
		}
	}
}
