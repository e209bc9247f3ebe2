package intersect_test

import (
	"context"
	"testing"

	"ppscan/internal/algotest"
	_ "ppscan/internal/core" // registers the ppscan engine
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
)

// TestGroundTruthCorpusEachBody runs the ppscan engine on its default
// kernel, BlockMerge, under every body this host can run, over the shared
// corpus plus two graphs whose lists span several 16-lane blocks, and
// checks each answer against the SCAN definitions.
func TestGroundTruthCorpusEachBody(t *testing.T) {
	cases := append(algotest.Corpus(),
		algotest.Case{Name: "dense-communities", G: gen.PlantedPartition(3, 60, 0.6, 0.02, 9)},
		algotest.Case{Name: "rmat-hubs", G: gen.RMAT(9, 4000, 0.57, 0.19, 0.19, 10)})
	intersect.EachBody(t, func(t *testing.T) {
		ws := engine.NewWorkspace()
		defer ws.Close()
		for _, tc := range cases {
			for _, th := range algotest.Params() {
				r, err := engine.Run(context.Background(), "ppscan", "", tc.G, th, engine.Options{Workers: 2}, ws)
				if err != nil {
					t.Fatalf("%s eps=%s mu=%d: %v", tc.Name, th.Eps, th.Mu, err)
				}
				if err := algotest.CheckGroundTruth(tc.G, r, th); err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
			}
		}
	})
}
