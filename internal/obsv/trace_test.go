package obsv

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTracerSpansAndSchema(t *testing.T) {
	tr := NewTracer()
	tr.SetProcessName("ppscan")
	tr.SetThreadName(0, "coordinator")
	tr.SetThreadName(1, "worker-0")

	sp := tr.Begin("similarity-pruning", 0)
	time.Sleep(time.Millisecond)
	inner := tr.Begin("task", 1)
	inner.EndArgs(map[string]any{"beg": 0, "end": 10, "deg": 42})
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	// The output must be a valid trace_event file: a traceEvents array of
	// objects each carrying name/ph/pid/tid, with ts+dur on "X" events.
	var f struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var complete, meta int
	for _, e := range f.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event missing %q: %v", field, e)
			}
		}
		switch e["ph"] {
		case "X":
			complete++
			if _, ok := e["ts"]; !ok {
				t.Errorf("complete event missing ts: %v", e)
			}
			if d, ok := e["dur"].(float64); !ok || d < 0 {
				t.Errorf("complete event bad dur: %v", e)
			}
		case "M":
			meta++
			args := e["args"].(map[string]any)
			if _, ok := args["name"]; !ok {
				t.Errorf("metadata event missing args.name: %v", e)
			}
		}
	}
	if complete != 2 || meta != 3 {
		t.Fatalf("events: %d complete, %d meta", complete, meta)
	}

	// The outer phase span must contain the inner task span in time.
	events := tr.Events()
	var phase, task *TraceEvent
	for i := range events {
		switch events[i].Name {
		case "similarity-pruning":
			phase = &events[i]
		case "task":
			task = &events[i]
		}
	}
	if phase == nil || task == nil {
		t.Fatal("phase or task span missing")
	}
	if task.TS < phase.TS || task.TS+task.Dur > phase.TS+phase.Dur+1 {
		t.Errorf("task [%f,+%f] not inside phase [%f,+%f]",
			task.TS, task.Dur, phase.TS, phase.Dur)
	}
	if phase.Dur < 900 { // slept 1ms inside the span; dur is microseconds
		t.Errorf("phase dur = %fus, want >= 900us", phase.Dur)
	}
	if task.Args["deg"].(int) != 42 {
		t.Errorf("task args = %v", task.Args)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Begin("t", w).End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Events()); got != goroutines*perG {
		t.Fatalf("events = %d, want %d", got, goroutines*perG)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", 0)
	sp.End()
	sp.EndArgs(map[string]any{"k": 1})
	tr.SetThreadName(0, "x")
	tr.SetProcessName("x")
	if tr.Events() != nil {
		t.Fatal("nil tracer should record nothing")
	}
}

func TestTracerEndTaskExportsArgs(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("task", 3)
	sp.EndTask(16, 128, 4096)
	events := tr.Events()
	var task *TraceEvent
	for i := range events {
		if events[i].Name == "task" {
			task = &events[i]
		}
	}
	if task == nil {
		t.Fatal("task span missing")
	}
	if task.Args["beg"].(int32) != 16 || task.Args["end"].(int32) != 128 || task.Args["deg"].(int64) != 4096 {
		t.Errorf("task args = %v", task.Args)
	}
	if task.TID != 3 {
		t.Errorf("task tid = %d", task.TID)
	}
}

func TestTracerResetKeepsNamesAndCapacity(t *testing.T) {
	tr := NewTracer()
	tr.SetProcessName("ppscan")
	tr.SetThreadName(0, "coordinator")
	tr.NameWorkers(4)
	tr.Begin("warm", 0).End()
	tr.Reset()
	for _, e := range tr.Events() {
		if e.Ph != "M" {
			t.Fatalf("span %q survived Reset", e.Name)
		}
	}

	// Names survive Reset and renaming to the same value is idempotent.
	tr.NameWorkers(4)
	tr.SetProcessName("ppscan")
	tr.SetThreadName(0, "coordinator")
	var names []string
	for _, e := range tr.Events() {
		if e.Ph == "M" {
			names = append(names, e.Args["name"].(string))
		}
	}
	want := []string{"ppscan", "coordinator", "worker-0", "worker-1", "worker-2", "worker-3"}
	if len(names) != len(want) {
		t.Fatalf("metadata names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("metadata names = %v, want %v", names, want)
		}
	}

	// The steady-state cycle of a pooled tracer — Reset, re-assert names,
	// record as many spans as the previous run — must be allocation-free.
	tr.Reset()
	for i := 0; i < 64; i++ {
		tr.Begin("span", 1).EndTask(0, 10, 100)
	}
	allocs := testing.AllocsPerRun(10, func() {
		tr.Reset()
		tr.SetProcessName("ppscan")
		tr.SetThreadName(0, "coordinator")
		tr.NameWorkers(4)
		for i := 0; i < 64; i++ {
			tr.Begin("span", 1).EndTask(0, 10, 100)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled tracer cycle allocates %.1f per run, want 0", allocs)
	}
}

func TestEmptyTracerWritesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if _, ok := f["traceEvents"].([]any); !ok {
		t.Fatalf("traceEvents missing or not an array: %s", buf.String())
	}
}
