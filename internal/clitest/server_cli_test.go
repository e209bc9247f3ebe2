package clitest

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startServer launches a scanserver binary with the given extra flags on an
// ephemeral port and returns the base URL, the running command, and a
// channel that receives the process's full output when it exits.
func startServer(t *testing.T, bin string, extra ...string) (baseURL string, cmd *exec.Cmd, output <-chan string) {
	t.Helper()
	args := append([]string{
		"-dataset", "ROLL-d40", "-scale", "0.02", "-addr", "127.0.0.1:0",
	}, extra...)
	cmd = exec.Command(bin, args...)
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

	// The server logs "listening on <resolved addr>" before serving; the
	// rest of the log keeps streaming into out.
	sc := bufio.NewScanner(stderr)
	var collected strings.Builder
	for sc.Scan() {
		line := sc.Text()
		collected.WriteString(line + "\n")
		if i := strings.Index(line, "listening on "); i >= 0 {
			baseURL = "http://" + strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if baseURL == "" {
		t.Fatalf("server never logged its listen address:\n%s", collected.String())
	}
	out := make(chan string, 1)
	go func() {
		for sc.Scan() {
			collected.WriteString(sc.Text() + "\n")
		}
		out <- collected.String()
	}()
	return baseURL, cmd, out
}

func httpGetJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	var resp *http.Response
	var err error
	for i := 0; i < 50; i++ { // the listener is up, but allow scheduling lag
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return body
}

func TestPpscanTraceAndStatsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	dir := t.TempDir()
	ppscanBin := build(t, dir, "ppscan")

	tracePath := filepath.Join(dir, "run.trace.json")
	out := run(t, ppscanBin, "-dataset", "ROLL-d40", "-scale", "0.02",
		"-eps", "0.3", "-mu", "3", "-trace", tracePath, "-json")

	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("-trace wrote no file: %v", err)
	}
	var trace map[string]any
	if err := json.Unmarshal(traceData, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	events, ok := trace["traceEvents"].([]any)
	if !ok || len(events) == 0 {
		t.Errorf("trace file has no traceEvents: %v", trace["traceEvents"])
	}

	// The -json report is the run's one record: Figure 6's stage times,
	// Figure 4's per-stage CompSim calls and Figure 5's kernel work.
	var report map[string]any
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("-json report is not valid JSON: %v\n%s", err, out)
	}
	for _, field := range []string{"phaseNs", "compSimByPhase", "kernel"} {
		if _, ok := report[field]; !ok {
			t.Errorf("-json report missing %q: %s", field, out)
		}
	}
}

func TestScanserverAdmissionFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	dir := t.TempDir()
	bin := build(t, dir, "scanserver")

	t.Run("request-timeout-503", func(t *testing.T) {
		// A 1ns deadline is already expired when the computation starts, so
		// every /cluster request must fail fast with 503 + Retry-After, and
		// the log must say once, not once per miss, that the timeout is
		// shorter than an index build.
		base, cmd, output := startServer(t, bin, "-request-timeout", "1ns", "-log-requests")
		for i := 0; i < 2; i++ {
			resp, err := http.Get(base + "/cluster?eps=0.3&mu=3")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("request %d: status %d, want 503", i, resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("request %d: 503 response missing Retry-After header", i)
			}
		}
		metrics := httpGetJSON(t, base+"/metrics", http.StatusOK)
		if v, _ := metrics["admission.timeouts"].(float64); v < 2 {
			t.Errorf("admission.timeouts = %v, want >= 2", metrics["admission.timeouts"])
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		var log string
		select {
		case log = <-output:
		case <-time.After(15 * time.Second):
			t.Fatal("scanserver did not exit after SIGTERM")
		}
		if n := strings.Count(log, "hit the 1ns request timeout"); n != 1 {
			t.Errorf("build-timeout line logged %d times over two misses, want 1:\n%s", n, log)
		}
	})

	t.Run("sigterm-drains", func(t *testing.T) {
		base, cmd, output := startServer(t, bin, "-shutdown-grace", "5s")
		httpGetJSON(t, base+"/healthz", http.StatusOK)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		// Read stderr to EOF (the child exiting closes the pipe) BEFORE
		// cmd.Wait: Wait closes the pipe and can discard buffered log
		// lines when reads are still in flight (see os/exec StderrPipe
		// docs) — under a loaded machine that raced away the drain lines.
		var log string
		select {
		case log = <-output:
		case <-time.After(15 * time.Second):
			t.Fatal("scanserver did not exit after SIGTERM")
		}
		waitErr := make(chan error, 1)
		go func() { waitErr <- cmd.Wait() }()
		select {
		case err := <-waitErr:
			if err != nil {
				t.Fatalf("scanserver exited non-zero after SIGTERM: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("scanserver did not exit after SIGTERM")
		}
		if !strings.Contains(log, "drained") {
			t.Errorf("shutdown log missing 'drained':\n%s", log)
		}
	})
}

// -indexfile alone implies -index: the first start builds the index and
// saves it before it listens, a second start loads the saved file, and
// both serve an indexed epoch.
func TestScanserverIndexFile(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	dir := t.TempDir()
	bin := build(t, dir, "scanserver")
	ixPath := filepath.Join(dir, "roll.ix")
	for _, want := range []string{"GS*-Index saved to", "GS*-Index loaded from"} {
		base, cmd, output := startServer(t, bin, "-indexfile", ixPath)
		if fi, err := os.Stat(ixPath); err != nil || fi.Size() == 0 {
			t.Fatalf("-indexfile: no index file after listening: %v", err)
		}
		if h := httpGetJSON(t, base+"/healthz", http.StatusOK); h["indexed"] != true {
			t.Errorf("/healthz indexed = %v, want true", h["indexed"])
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case log := <-output:
			if !strings.Contains(log, want) {
				t.Errorf("log missing %q:\n%s", want, log)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("scanserver did not exit after SIGTERM")
		}
	}
}

// A client that stalls inside the request line must not hold a connection
// (and its goroutine) forever: scanserver's ReadHeaderTimeout is 5s, so the
// server closes it well inside the 8s read deadline.
func TestScanserverClosesStalledRequestLine(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	t.Parallel()
	bin := build(t, t.TempDir(), "scanserver")
	base, _, _ := startServer(t, bin)
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(8 * time.Second))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a connection with half a request line open for 8s")
	}
}
