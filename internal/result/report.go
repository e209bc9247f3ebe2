package result

import (
	"encoding/json"
	"io"

	"ppscan/graph"
	"ppscan/internal/intersect"
)

// RunReport is a machine-readable summary of one clustering run, suitable
// for logging pipelines and regression tracking.
type RunReport struct {
	Algorithm      string  `json:"algorithm"`
	Eps            string  `json:"eps"`
	Mu             int32   `json:"mu"`
	Workers        int     `json:"workers"`
	Vertices       int32   `json:"vertices"`
	Edges          int64   `json:"edges"`
	Cores          int     `json:"cores"`
	Clusters       int     `json:"clusters"`
	Memberships    int     `json:"memberships"`
	Hubs           int     `json:"hubs"`
	Outliers       int     `json:"outliers"`
	Coverage       float64 `json:"coverage"`
	RuntimeNs      int64   `json:"runtimeNs"`
	CommBytes      int64   `json:"commBytes,omitempty"`
	PhaseNs        []int64 `json:"phaseNs,omitempty"`
	CompSimCalls   int64   `json:"compSimCalls"`
	CompSimByPhase []int64 `json:"compSimByPhase,omitempty"`
	// Kernel carries the intersection-kernel telemetry when the run
	// collected it (ppSCAN with observability enabled).
	Kernel *intersect.Stats `json:"kernel,omitempty"`
}

// NewRunReport assembles the report for a completed run, including the
// hub/outlier classification.
func NewRunReport(g *graph.Graph, r *Result) RunReport {
	rep := RunReport{
		Algorithm:    r.Stats.Algorithm,
		Eps:          r.Eps,
		Mu:           r.Mu,
		Workers:      r.Stats.Workers,
		Vertices:     g.NumVertices(),
		Edges:        g.NumEdges(),
		Cores:        r.NumCores(),
		Clusters:     r.NumClusters(),
		Memberships:  len(r.NonCore),
		RuntimeNs:    int64(r.Stats.Total),
		CommBytes:    r.Stats.CommBytes,
		CompSimCalls: r.Stats.CompSimCalls,
	}
	covered := 0
	for _, att := range ClassifyHubsOutliers(g, r) {
		switch att {
		case AttachClustered:
			covered++
		case AttachHub:
			rep.Hubs++
		case AttachOutlier:
			rep.Outliers++
		}
	}
	if g.NumVertices() > 0 {
		rep.Coverage = float64(covered) / float64(g.NumVertices())
	}
	var phaseSum int64
	for _, d := range r.Stats.PhaseTimes {
		phaseSum += int64(d)
	}
	if phaseSum > 0 {
		rep.PhaseNs = make([]int64, NumPhases)
		for i, d := range r.Stats.PhaseTimes {
			rep.PhaseNs[i] = int64(d)
		}
	}
	var callSum int64
	for _, n := range r.Stats.CompSimByPhase {
		callSum += n
	}
	if callSum > 0 {
		rep.CompSimByPhase = make([]int64, NumPhases)
		for i, n := range r.Stats.CompSimByPhase {
			rep.CompSimByPhase[i] = n
		}
	}
	if r.Stats.Kernel.Calls > 0 {
		k := r.Stats.Kernel
		rep.Kernel = &k
	}
	return rep
}

// WriteJSON emits the report as indented JSON.
func (rep RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
