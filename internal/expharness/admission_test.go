package expharness

import (
	"testing"

	"ppscan/internal/dataset"
	"ppscan/internal/gsindex"
)

// TestDatasetsCluster is internal/dataset's admission test: at scale 1.0
// every dataset must cluster at every ε of EpsGrid at µ = DefaultMu, with
// at least two clusters and a core share inside [minCores, maxCores]. A
// cell with no core measures pruning alone, and one where nearly every
// vertex is a core leaves the similarity test nothing to decide; the
// figures are about neither. The only exception is a cell in
// deliberatelyEmpty, whose entry says why it may read no cluster; it must
// then read none, so the list cannot go stale. One GS*-Index build per
// graph answers all four ε.
func TestDatasetsCluster(t *testing.T) {
	const minCores, maxCores = 0.05, 0.95
	// "dataset ε" → why the cell may hold no cluster. No cell is empty by
	// design today.
	deliberatelyEmpty := map[string]string{}
	for _, name := range dataset.Names() {
		g := dataset.MustLoad(name, 1)
		ix := gsindex.Build(g, gsindex.BuildOptions{})
		for _, eps := range EpsGrid {
			r, err := ix.Query(eps, DefaultMu)
			if err != nil {
				t.Fatal(err)
			}
			cell := name + " " + eps
			clusters, share := r.NumClusters(), float64(r.NumCores())/float64(g.NumVertices())
			t.Logf("%s: %d clusters, %.0f%% cores", cell, clusters, 100*share)
			if why, ok := deliberatelyEmpty[cell]; ok {
				if clusters != 0 {
					t.Errorf("%s is listed as empty (%s) but has %d clusters", cell, why, clusters)
				}
				continue
			}
			if clusters < 2 || share < minCores || share > maxCores {
				t.Errorf("%s at µ=%d: %d clusters, %.1f%% cores; want ≥ 2 clusters and %.0f–%.0f%% cores",
					cell, DefaultMu, clusters, 100*share, 100*minCores, 100*maxCores)
			}
		}
	}
}
