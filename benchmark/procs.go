package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env locates the checkout and everything the benchmark writes: all of it
// under <root>/.bench_build (binaries, Go build cache, per-run scratch) and
// benchmark/out (traces), both git-ignored.
type env struct {
	root string // repository root: the directory of module ppscan
	bin  string // built scanserver and scanshard
	tmp  string // this run's scratch; removed on exit
}

// findRoot walks up from the working directory to the go.mod of module
// ppscan, so the benchmark runs from the root and from its own directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module ppscan\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module ppscan above the working directory")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin")}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// buildServers compiles the programs under test from the checkout's own
// source. The Go build cache lives in the checkout too, so a warm rebuild
// is a fraction of a second and nothing is written outside.
func (e *env) buildServers() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/scanserver", "./cmd/scanshard")
	cmd.Dir = e.root
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(e.root, ".bench_build", "gocache"),
		"GOFLAGS=-mod=mod", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building scanserver and scanshard: %v\n%s", err, out)
	}
	return nil
}

// procs tracks every live child so that exit, panic and SIGINT all reach
// them: main defers stopAll and its signal handler calls it too.
var procs struct {
	sync.Mutex
	live map[*proc]bool
}

// proc is one program under test.
type proc struct {
	cmd    *exec.Cmd
	addr   string        // host:port from the "listening on" log line
	logs   chan struct{} // closed when stderr is drained
	tailMu sync.Mutex
	tail   []string // last stderr lines, for error reports
}

// startProc launches a binary with -addr 127.0.0.1:0 and waits for the
// line in which it logs the port it got.
func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{logs: make(chan struct{})}
	p.cmd = exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*proc]bool{}
	}
	procs.live[p] = true
	procs.Unlock()

	listening := make(chan string, 1) // holds the one address line
	go func() {
		defer close(p.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.tailMu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.tailMu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case listening <- strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-listening:
		return p, nil
	case <-p.logs:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening:\n%s", filepath.Base(bin), p.lastLogs())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 60s:\n%s", filepath.Base(bin), p.lastLogs())
	}
}

func (p *proc) lastLogs() string {
	p.tailMu.Lock()
	defer p.tailMu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop ends the process and waits for it: SIGTERM first (the programs
// drain), SIGKILL after three seconds. Safe to call twice.
func (p *proc) stop() {
	procs.Lock()
	wasLive := procs.live[p]
	delete(procs.live, p)
	procs.Unlock()
	if !wasLive {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-p.logs:
	case <-time.After(3 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.logs
	}
	_ = p.cmd.Wait() // a signal exit status is expected
}

func stopAll() {
	procs.Lock()
	var all []*proc
	for p := range procs.live {
		all = append(all, p)
	}
	procs.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// peakRSSMB is the process's VmHWM in MB; pid 0 means this process.
func peakRSSMB(pid int) float64 {
	name := "self"
	if pid != 0 {
		name = strconv.Itoa(pid)
	}
	data, err := os.ReadFile("/proc/" + name + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// serverMetrics is one GET /metrics snapshot: plain numbers, and histogram
// objects flattened to name.count, name.sum, ….
type serverMetrics map[string]float64

func fetchMetrics(client *http.Client, base string) (serverMetrics, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	m := serverMetrics{}
	for name, v := range raw {
		switch v := v.(type) {
		case float64:
			m[name] = v
		case map[string]any:
			for field, fv := range v {
				if f, ok := fv.(float64); ok {
					m[name+"."+field] = f
				}
			}
		}
	}
	return m, nil
}

// delta is after − before for one metric; absent reads as 0.
func (after serverMetrics) delta(before serverMetrics, name string) float64 {
	return after[name] - before[name]
}

// meanMS is the mean of a nanosecond histogram over the interval between
// two snapshots, in ms.
func (after serverMetrics) meanMS(before serverMetrics, hist string) float64 {
	n := after.delta(before, hist+".count")
	if n == 0 {
		return 0
	}
	return after.delta(before, hist+".sum") / n / 1e6
}
