package clitest

import (
	"bufio"
	"errors"
	"net/http"
	"net/url"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// startWorker launches a scanshard worker on an ephemeral port and returns
// its base URL. The worker logs "listening on <addr>" once it can serve.
func startWorker(t *testing.T, bin string, shard, shards int) string {
	t.Helper()
	cmd := exec.Command(bin,
		"-dataset", "ROLL-d40", "-scale", "0.02", "-addr", "127.0.0.1:0",
		"-shard", strconv.Itoa(shard), "-shards", strconv.Itoa(shards))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	sc := bufio.NewScanner(stderr)
	var collected strings.Builder
	for sc.Scan() {
		line := sc.Text()
		collected.WriteString(line + "\n")
		if i := strings.Index(line, "listening on "); i >= 0 {
			// Drain the rest of stderr so the child never blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return "http://" + strings.TrimSpace(line[i+len("listening on "):])
		}
	}
	t.Fatalf("scanshard never logged its listen address:\n%s", collected.String())
	return ""
}

// expectExit2 runs the binary expecting a flag/usage failure: exit status 2
// with the usage text on the combined output.
func expectExit2(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected failure, got success\n%s", bin, args, out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("%s %v: want exit 2, got %v\n%s", bin, args, err, out)
	}
	if !strings.Contains(string(out), "Usage of ") {
		t.Errorf("usage text missing from exit-2 output:\n%s", out)
	}
	return string(out)
}

func TestScanshardFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	dir := t.TempDir()
	bin := build(t, dir, "scanshard")

	// No partition arguments at all: the defaults (-shard -1 -shards 0) are
	// deliberately invalid so a bare launch cannot silently own everything.
	out := expectExit2(t, bin, "-dataset", "ROLL-d40", "-scale", "0.02")
	if !strings.Contains(out, "need 0 <= shard < shards") {
		t.Errorf("error does not state the partition invariant:\n%s", out)
	}

	// Shard id out of range for the fleet size.
	out = expectExit2(t, bin, "-dataset", "ROLL-d40", "-scale", "0.02",
		"-shard", "3", "-shards", "2")
	if !strings.Contains(out, "-shard 3 -shards 2 invalid") {
		t.Errorf("error does not echo the bad arguments:\n%s", out)
	}

	// Valid partition but no input graph: a non-usage failure (exit 1).
	cmd := exec.Command(bin, "-shard", "0", "-shards", "1")
	cliOut, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 2 {
		t.Fatalf("missing input: want non-usage failure, got %v\n%s", err, cliOut)
	}
	if !strings.Contains(string(cliOut), "one of -graph or -dataset is required") {
		t.Errorf("missing-input error unexpected:\n%s", cliOut)
	}
}

func TestScanserverShardSpecValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	dir := t.TempDir()
	bin := build(t, dir, "scanserver")

	// Replica addresses must be http(s) base URLs.
	out := expectExit2(t, bin, "-dataset", "ROLL-d40", "-scale", "0.02",
		"-shards", "localhost:9100")
	if !strings.Contains(out, "bad -shards") || !strings.Contains(out, "not an http(s) base URL") {
		t.Errorf("bad replica URL not diagnosed:\n%s", out)
	}

	// An empty shard inside the spec names which shard is broken.
	out = expectExit2(t, bin, "-dataset", "ROLL-d40", "-scale", "0.02",
		"-shards", "http://h1:9100;;http://h2:9100")
	if !strings.Contains(out, "shard 1 has no replicas") {
		t.Errorf("empty shard not diagnosed:\n%s", out)
	}

	// The fleet and the index are stages of one pipeline, not exclusive
	// modes: both start together, the stage order is logged, and the index
	// answers without the (here unreachable) fleet being asked.
	base, cmd, output := startServer(t, bin, "-shards", "http://127.0.0.1:1", "-index")
	got := httpGetJSON(t, base+"/cluster?eps=0.3&mu=3", http.StatusOK)
	if got["algorithm"] != "GS*-Index" {
		t.Errorf("algorithm = %v, want GS*-Index (the index stage comes before the fleet)", got["algorithm"])
	}
	_ = cmd.Process.Kill()
	if log := <-output; !strings.Contains(log, "resolve pipeline: cache(64) → index → fleet(1 shards)") {
		t.Errorf("stage order not logged:\n%s", log)
	}
}

// TestShardFleetSmoke is the two-process (plus coordinator) end-to-end
// smoke test: real scanshard worker processes serve a real scanserver
// coordinator over TCP, and the sharded answer matches the in-process one.
func TestShardFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	dir := t.TempDir()
	workerBin := build(t, dir, "scanshard")
	serverBin := build(t, dir, "scanserver")

	w0 := startWorker(t, workerBin, 0, 2)
	w1 := startWorker(t, workerBin, 1, 2)

	base, cmd, _ := startServer(t, serverBin, "-shards", w0+";"+w1)
	defer cmd.Process.Kill()

	direct, dcmd, _ := startServer(t, serverBin)
	defer dcmd.Process.Kill()

	got := httpGetJSON(t, base+"/cluster?eps=0.3&mu=3&members=true", http.StatusOK)
	want := httpGetJSON(t, direct+"/cluster?eps=0.3&mu=3&members=true", http.StatusOK)
	if algo, _ := got["algorithm"].(string); algo != "shard-scan(s=2)" {
		t.Errorf("algorithm = %v, want shard-scan(s=2)", got["algorithm"])
	}
	for _, k := range []string{"clusters", "cores", "memberships", "coverage"} {
		if got[k] != want[k] {
			t.Errorf("%s: sharded %v, direct %v", k, got[k], want[k])
		}
	}

	// /healthz surfaces the fleet: both shards present and reachable.
	health := httpGetJSON(t, base+"/healthz", http.StatusOK)
	fs, ok := health["shards"].(map[string]any)
	if !ok {
		t.Fatalf("/healthz has no shards block: %v", health)
	}
	if n, _ := fs["shards"].(float64); n != 2 {
		t.Errorf("fleet shard count %v, want 2", fs["shards"])
	}
	if n, _ := fs["replicas_healthy"].(float64); n != 2 {
		t.Errorf("replicas_healthy = %v, want 2", fs["replicas_healthy"])
	}
}

// TestOversizedHeaderIs431: both binaries cap the request line plus
// headers, so a 128 KiB header is refused with 431 before any handler
// runs, while the longest sweep URL the default -sweep-max-steps admits
// still fits.
func TestOversizedHeaderIs431(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	dir := t.TempDir()
	server, _, _ := startServer(t, build(t, dir, "scanserver"))
	worker := startWorker(t, build(t, dir, "scanshard"), 0, 1)
	for _, target := range []string{server + "/healthz", worker + "/shard/healthz"} {
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pad", strings.Repeat("x", 128<<10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Errorf("GET %s with a 128 KiB header: status %d, want 431", target, resp.StatusCode)
		}
	}
	list := strings.TrimSuffix(strings.Repeat("4294967295/4294967295,", 256), ",")
	resp, err := http.Get(server + "/cluster/sweep?mu=3&eps=" + url.QueryEscape(list))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("256-step sweep of the longest eps: status %d, want 200", resp.StatusCode)
	}
}
