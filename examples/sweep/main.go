// Interactive parameter exploration — the paper's motivation for sub-minute
// clustering: analysts sweep (ε, µ) to find a parameterization whose
// clusters match their domain intuition. The expensive similarity
// computation does not depend on ε or µ, so the server's GET
// /cluster/sweep endpoint computes it ONCE — the first sweep builds the
// graph's GS*-Index and the server keeps it — and answers one NDJSON
// clustering per ε step. It extracts the steps from the largest ε down,
// each extending the previous one's clusters, and writes the lines in the
// request's order once the last step is done. This example starts an
// in-process server and reads those lines for three values of µ, printing
// the dashboard an interactive tool would show.
//
// Contrast with calling ppscan.Run per gridpoint: a 7×3 grid would
// perform 21 similarity passes; the sweep endpoint performs 1, and every
// later sweep or /cluster request extracts from the kept index.
//
// Run with:
//
//	go run ./examples/sweep
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"ppscan/graph"
	"ppscan/internal/gen"
	"ppscan/internal/server"
)

func main() {
	// A network mixing cohesive groups (clusterable at mid eps) with
	// scale-free background contacts (clusterable only at low eps) — the
	// kind of input where the right (eps, mu) is genuinely unclear and
	// analysts need to sweep.
	fmt.Println("generating mixed community + scale-free graph...")
	comm := gen.PlantedPartition(200, 50, 0.4, 0, 99)
	tail := gen.Roll(comm.NumVertices(), 6, 100)
	g, err := graph.FromEdges(comm.NumVertices(), append(comm.Edges(), tail.Edges()...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(graph.ComputeStats("mixed", g))

	// Serve it the way scanserver would:
	//   scanserver -graph mixed.bin
	srv := server.New(g, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// One sweep request per µ: the first builds the index, and each answers
	// seven clusterings extracted from it.
	fmt.Printf("\n%-5s %4s %10s %10s %10s %12s\n", "eps", "mu", "clusters", "cores", "coverage", "extractMs")
	t0 := time.Now()
	for _, mu := range []int{2, 5, 10} {
		resp, err := http.Get(fmt.Sprintf("%s/cluster/sweep?eps=0.2:0.8:0.1&mu=%d", base, mu))
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("sweep: status %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var step struct {
				Eps       string  `json:"eps"`
				Mu        int     `json:"mu"`
				Clusters  int     `json:"clusters"`
				Cores     int     `json:"cores"`
				Coverage  float64 `json:"coverage"`
				RuntimeMs float64 `json:"runtimeMs"`
			}
			if err := json.Unmarshal(sc.Bytes(), &step); err != nil {
				log.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			fmt.Printf("%-5s %4d %10d %10d %9.1f%% %11.2fms\n",
				step.Eps, step.Mu, step.Clusters, step.Cores,
				100*step.Coverage, step.RuntimeMs)
		}
		if err := sc.Err(); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	elapsed := time.Since(t0).Round(time.Millisecond)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Builds int `json:"server.index.builds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n21 clusterings from %d similarity pass(es) in %v\n", metrics.Builds, elapsed)
	fmt.Println("(a per-gridpoint ppscan.Run loop would have computed similarities 21 times)")
}
