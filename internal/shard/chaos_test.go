package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// typedShardError reports whether err is a clean, typed failure a faulted
// shard query may return: the shard taxonomy, an injected transient, or a
// context abort. Anything else — a hang, a silent partial result, a raw
// transport error — is a containment bug.
func typedShardError(err error) bool {
	var ua *ShardUnavailableError
	var to *ShardTimeoutError
	var cr *ShardCrashError
	var rej *ShardRejectedError
	if errors.As(err, &ua) || errors.As(err, &to) || errors.As(err, &cr) || errors.As(err, &rej) {
		return true
	}
	if errors.Is(err, fault.ErrInjected) {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// TestShardChaosSeeds drives the full coordinator/worker stack under
// seeded randomized shard fault schedules (straggler supersteps, severed
// connections, RPC failures). The acceptance contract: every query either
// returns a result bit-identical to the clean reference — the retries and
// epoch machinery absorbed the faults — or a clean typed shard error. Never a hang, never a wrong answer. After disabling
// injection the same fleet serves correctly, proving no fault poisoned
// worker or coordinator state.
func TestShardChaosSeeds(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := gen.Roll(300, 8, 5)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(g, th)

	f := newFleet(t, overHTTP, g, 2)
	c, err := NewCoordinator(g, Options{
		Shards:          f.addrs,
		StepTimeout:     150 * time.Millisecond,
		RetryBackoff:    time.Millisecond,
		MaxRetryBackoff: 20 * time.Millisecond,
		MaxAttempts:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var absorbed, typed int
	for seed := int64(1); seed <= 12; seed++ {
		fault.Enable(fault.NewShardPlan(seed))
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		got, err := c.Run(ctx, "0.5", 3)
		cancel()
		switch {
		case err == nil:
			if err := result.Equal(want, got); err != nil {
				t.Fatalf("seed %d: faulted run returned a WRONG result: %v", seed, err)
			}
			absorbed++
		case typedShardError(err):
			typed++
		default:
			t.Fatalf("seed %d: untyped error escaped containment: %v", seed, err)
		}
		fault.Disable()
	}
	t.Logf("chaos: %d absorbed, %d typed failures", absorbed, typed)
	// The fleet must be fully usable after the drill.
	got, err := c.Run(context.Background(), "0.5", 3)
	if err != nil {
		t.Fatalf("clean run after chaos failed: %v", err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatalf("clean run after chaos wrong: %v", err)
	}
	if absorbed == 0 {
		t.Error("no seed was absorbed; retry never succeeded under faults")
	}
}

// shardProc is one scanshard process under test control.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
	logC <-chan string
}

// startShardProc launches a scanshard worker process and waits for its
// listen address. addr may be "127.0.0.1:0" (ephemeral) or a fixed
// address when restarting in place.
func startShardProc(t *testing.T, bin, graphPath string, shardID, shards int, addr string, extra ...string) *shardProc {
	t.Helper()
	args := append([]string{
		"-graph", graphPath,
		"-shard", fmt.Sprint(shardID), "-shards", fmt.Sprint(shards),
		"-addr", addr,
	}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logC := make(chan string, 1)
	// Cleanups run LIFO: register the log-archival cleanup FIRST so it runs
	// AFTER the kill cleanup below has closed the stderr pipe and logC has
	// been fed the full collected output.
	if dir := os.Getenv("SHARD_CHAOS_LOG_DIR"); dir != "" {
		t.Cleanup(func() { archiveShardLog(t, dir, shardID, cmd, logC) })
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	sc := bufio.NewScanner(stderr)
	var collected strings.Builder
	var resolved string
	for sc.Scan() {
		line := sc.Text()
		collected.WriteString(line + "\n")
		if i := strings.Index(line, "listening on "); i >= 0 {
			resolved = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if resolved == "" {
		t.Fatalf("scanshard never logged its listen address:\n%s", collected.String())
	}
	go func() {
		for sc.Scan() {
			collected.WriteString(sc.Text() + "\n")
		}
		logC <- collected.String()
	}()
	return &shardProc{cmd: cmd, addr: resolved, logC: logC}
}

// archiveShardLog writes one worker process's collected log under dir —
// set SHARD_CHAOS_LOG_DIR to keep worker logs on disk so a failed chaos
// run in CI can upload them as artifacts.
func archiveShardLog(t *testing.T, dir string, shardID int, cmd *exec.Cmd, logC <-chan string) {
	t.Helper()
	var wlog string
	select {
	case wlog = <-logC:
	case <-time.After(5 * time.Second):
		wlog = "(worker log unavailable: stderr drain never completed)\n"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("archiving worker log: %v", err)
		return
	}
	name := fmt.Sprintf("%s-shard%d-pid%d.log",
		strings.ReplaceAll(t.Name(), "/", "_"), shardID, cmd.Process.Pid)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(wlog), 0o644); err != nil {
		t.Logf("archiving worker log: %v", err)
	}
}

// buildScanshard compiles cmd/scanshard once per test binary directory.
// The chaos tests run under -race; the worker binary is built with -race
// too so cross-process drills also shake out worker-side races.
func buildScanshard(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "scanshard")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "ppscan/cmd/scanshard")
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building scanshard: %v\n%s", err, out)
	}
	return bin
}

// TestShardChaosProcessKill is the headline acceptance drill: real worker
// processes, a SIGKILL mid-superstep, and the query-level contract — the
// coordinator masks the death via retry against the restarted process, or
// fails with a typed ShardUnavailableError; never a hang, never a partial
// result, and after the worker restarts the fleet serves bit-identical
// results again: the on-demand sync and the retry bring it back.
func TestShardChaosProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos skipped in -short")
	}
	dir := t.TempDir()
	bin := buildScanshard(t, dir)

	g := gen.Roll(2000, 12, 9)
	graphPath := filepath.Join(dir, "chaos.bin")
	fwr, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(fwr, g); err != nil {
		t.Fatal(err)
	}
	fwr.Close()

	w0 := startShardProc(t, bin, graphPath, 0, 2, "127.0.0.1:0")
	w1 := startShardProc(t, bin, graphPath, 1, 2, "127.0.0.1:0")

	th, _ := simdef.NewThreshold("0.5", 3)
	want := reference(g, th)

	c, err := NewCoordinator(g, Options{
		Shards:          []string{"http://" + w0.addr, "http://" + w1.addr},
		StepTimeout:     5 * time.Second,
		RetryBackoff:    50 * time.Millisecond,
		MaxRetryBackoff: 500 * time.Millisecond,
		MaxAttempts:     8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up: the fleet serves correctly before any violence.
	got, err := c.Run(context.Background(), "0.5", 3)
	if err != nil {
		t.Fatalf("pre-kill query failed: %v", err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatalf("pre-kill query wrong: %v", err)
	}

	// Kill worker 1 with SIGKILL while a query is in flight, then restart
	// it at the same address while the coordinator's retry loop is still
	// backing off. The in-flight query must either come back correct
	// (retries landed on the restarted process, which recomputes its
	// deterministic state from scratch) or fail typed.
	var wg sync.WaitGroup
	wg.Add(1)
	var qres *result.Result
	var qerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Small head start so the kill lands mid-query.
		time.Sleep(10 * time.Millisecond)
		if err := w1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Errorf("SIGKILL: %v", err)
		}
		_, _ = w1.cmd.Process.Wait()
		// Restart in place at the same address.
		w1r := startShardProc(t, bin, graphPath, 1, 2, w1.addr)
		if w1r.addr != w1.addr {
			t.Errorf("restart moved the worker: %s -> %s", w1.addr, w1r.addr)
		}
	}()
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		qres, qerr = c.Run(ctx, "0.5", 3)
	}()
	wg.Wait()

	switch {
	case qerr == nil:
		if err := result.Equal(want, qres); err != nil {
			t.Fatalf("mid-kill query returned a WRONG result: %v", err)
		}
		t.Log("mid-kill query absorbed the SIGKILL")
	case typedShardError(qerr):
		t.Logf("mid-kill query failed typed: %v", qerr)
	default:
		t.Fatalf("mid-kill query escaped the taxonomy: %v", qerr)
	}

	// The restarted worker serves the next query bit-identically.
	got, err = c.Run(context.Background(), "0.5", 3)
	if err != nil {
		t.Fatalf("post-restart query failed: %v", err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatalf("post-restart query wrong: %v", err)
	}
}

// TestShardChaosProcessCrashInjection arms the worker process's own
// -chaos-seed: an injected ShardCrash hard-exits the process with status
// 3 mid-superstep. With no restart, the contract degrades
// cleanly: a typed ShardUnavailableError wrapping a crash, never a hang.
func TestShardChaosProcessCrashInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos skipped in -short")
	}
	dir := t.TempDir()
	bin := buildScanshard(t, dir)
	g := gen.Roll(500, 8, 11)
	graphPath := filepath.Join(dir, "crash.bin")
	fwr, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(fwr, g); err != nil {
		t.Fatal(err)
	}
	fwr.Close()

	// Seed 14's shard plan contains {ShardCrash, ActError, Start:1,
	// Every:1}: the worker hard-exits (status 3) on the very first
	// superstep it serves. NewShardPlan is seed-stable by contract, so
	// this stays deterministic.
	w0 := startShardProc(t, bin, graphPath, 0, 1, "127.0.0.1:0", "-chaos-seed", "14")
	c, err := NewCoordinator(g, Options{
		Shards:          []string{"http://" + w0.addr},
		StepTimeout:     2 * time.Second,
		RetryBackoff:    10 * time.Millisecond,
		MaxRetryBackoff: 50 * time.Millisecond,
		MaxAttempts:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err = c.Run(ctx, "0.5", 3)
	var ua *ShardUnavailableError
	if !errors.As(err, &ua) {
		t.Fatalf("want ShardUnavailableError from a crash-looping worker, got %v", err)
	}
	var cr *ShardCrashError
	if !errors.As(err, &cr) {
		t.Fatalf("unavailable error should wrap the crash leaf, got %v", ua.Err)
	}
	// The process really exited with the crash status.
	err = w0.cmd.Wait()
	var xerr *exec.ExitError
	if !errors.As(err, &xerr) || xerr.ExitCode() != 3 {
		t.Fatalf("worker exit: %v, want exit status 3", err)
	}
}
