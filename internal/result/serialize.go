package result

import (
	"bufio"
	"fmt"
	"io"
)

// Write serializes a result in a stable, line-oriented, diffable text
// format:
//
//	# ppscan-result eps=<eps> mu=<mu> vertices=<n>
//	v <vertex> <C|N> <clusterID or -1>     (one line per vertex)
//	m <vertex> <clusterID>                 (one line per non-core membership)
//
// Two equal results (per Equal) always serialize to identical bytes.
func Write(w io.Writer, r *Result) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# ppscan-result eps=%s mu=%d vertices=%d\n",
		r.Eps, r.Mu, len(r.Roles)); err != nil {
		return err
	}
	for v, role := range r.Roles {
		tag := "N"
		if role == RoleCore {
			tag = "C"
		}
		if _, err := fmt.Fprintf(bw, "v %d %s %d\n", v, tag, r.CoreClusterID[v]); err != nil {
			return err
		}
	}
	for _, m := range r.NonCore {
		if _, err := fmt.Fprintf(bw, "m %d %d\n", m.V, m.ClusterID); err != nil {
			return err
		}
	}
	return bw.Flush()
}
