// Span tracer with Chrome trace_event JSON export.
//
// A Tracer records named spans (phases, scheduler tasks, requests) on
// numbered tracks ("tids"); WriteJSON emits the run as the Trace Event
// Format understood by chrome://tracing and https://ui.perfetto.dev — one
// complete ("ph":"X") event per span plus thread-name metadata, so a
// ppSCAN run renders as a coordinator track with the seven phases and one
// track per worker with its scheduler tasks.
//
// Begin is allocation-free and lock-free (the span start is captured on
// the caller's stack); End appends the finished event under a mutex. Spans
// are millisecond-scale (phases, tasks, HTTP requests), so the mutex is
// never contended enough to matter, and a nil *Tracer makes both
// operations no-ops.
//
// Tracers are reusable: Reset truncates the recorded events while keeping
// their capacity and the track names, so a pooled tracer serves an
// unbounded number of runs without growing the heap — the property the
// traced serving allocation gate (engine's TestServingAllocBudgetTraced)
// holds. Track and process names are stored as fields (not as recorded
// events) and synthesized into "M" metadata events at export time;
// setting a name to its current value is a no-op after the first call.
package obsv

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceEvent is one Chrome trace_event record. Ph "X" is a complete event
// (span), "M" metadata (thread/process names). Timestamps and durations
// are microseconds, as the format requires.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the top-level JSON object Perfetto and chrome://tracing
// both accept. Exported so callers embedding a captured trace in a larger
// JSON document (the server's /debug/slowest endpoint) emit the same
// schema WriteJSON does.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// NewTraceFile wraps already-exported events in the standard top-level
// trace object. A nil slice becomes an empty array so the output is
// always loadable.
func NewTraceFile(events []TraceEvent) *TraceFile {
	if events == nil {
		events = []TraceEvent{}
	}
	return &TraceFile{TraceEvents: events, DisplayTimeUnit: "ms"}
}

// rec is the internal event record. Scheduler-task span arguments are
// kept as plain integers (set via Span.EndTask) rather than an args map,
// so recording a task on the serving path allocates nothing; Events
// materializes the map only at export time.
type rec struct {
	ev       TraceEvent
	taskBeg  int32
	taskEnd  int32
	taskDeg  int64
	taskArgs bool
}

// Tracer records spans relative to its creation (or last Reset) time. A
// nil *Tracer is a no-op.
type Tracer struct {
	mu       sync.Mutex
	start    time.Time
	events   []rec
	procName string
	threads  map[int]string
}

// NewTracer returns a tracer whose time origin is now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Reset truncates the recorded events — keeping their capacity and the
// process/track names — and moves the time origin to now. After the
// warm-up run a pooled tracer's Begin/End/EndTask cycle is
// allocation-free.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.start = time.Now()
	t.mu.Unlock()
}

// Span is an in-flight interval started by Begin. The zero Span (from a
// nil tracer) is a no-op.
type Span struct {
	t     *Tracer
	name  string
	tid   int
	start time.Time
}

// Begin opens a span named name on track tid. Call End (or EndArgs /
// EndTask) on the returned Span to record it; an unclosed span records
// nothing.
func (t *Tracer) Begin(name string, tid int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, tid: tid, start: time.Now()}
}

// End records the span with no arguments.
func (s Span) End() { s.EndArgs(nil) }

// EndArgs records the span with the given args payload.
func (s Span) EndArgs(args map[string]any) {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.append(rec{ev: TraceEvent{
		Name: s.name,
		Ph:   "X",
		TS:   micros(s.start.Sub(s.t.start)),
		Dur:  micros(end.Sub(s.start)),
		PID:  1,
		TID:  s.tid,
		Args: args,
	}})
}

// EndTask records the span with a scheduler-task payload (vertex range
// and degree sum) without allocating: the three integers ride in the
// internal record and become an args map only when the trace is exported.
// This keeps per-task tracing inside the zero-allocation serving budget.
func (s Span) EndTask(beg, end int32, deg int64) {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.append(rec{
		ev: TraceEvent{
			Name: s.name,
			Ph:   "X",
			TS:   micros(s.start.Sub(s.t.start)),
			Dur:  micros(now.Sub(s.start)),
			PID:  1,
			TID:  s.tid,
		},
		taskBeg:  beg,
		taskEnd:  end,
		taskDeg:  deg,
		taskArgs: true,
	})
}

// SetThreadName labels track tid in the trace viewer (e.g. "coordinator",
// "worker-3"). Names persist across Reset; setting the name a track
// already has is a no-op, so repeated calls on a pooled tracer allocate
// nothing.
func (t *Tracer) SetThreadName(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.threads[tid] != name {
		if t.threads == nil {
			t.threads = make(map[int]string)
		}
		t.threads[tid] = name
	}
	t.mu.Unlock()
}

// SetProcessName labels the whole trace's process row. Persists across
// Reset; idempotent and allocation-free once set.
func (t *Tracer) SetProcessName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procName = name
	t.mu.Unlock()
}

// NameWorkers labels tracks 1..n as "worker-0".."worker-<n-1>" (track 0
// is conventionally the coordinator). Tracks already named keep their
// name, so after the first call on a given tracer the loop builds no
// strings — the form core uses on the serving path.
func (t *Tracer) NameWorkers(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.threads == nil {
		t.threads = make(map[int]string)
	}
	for w := 0; w < n; w++ {
		if _, ok := t.threads[1+w]; !ok {
			t.threads[1+w] = "worker-" + strconv.Itoa(w)
		}
	}
	t.mu.Unlock()
}

func (t *Tracer) append(e rec) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events: synthesized "M" metadata
// events for the process and track names first, then the spans in
// recording order. Task spans recorded by EndTask get their
// args map materialized here — export is the cold path.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 && t.procName == "" && len(t.threads) == 0 {
		return nil
	}
	meta := make([]TraceEvent, 0, 1+len(t.threads))
	if t.procName != "" {
		meta = append(meta, TraceEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  1,
			Args: map[string]any{"name": t.procName},
		})
	}
	tids := make([]int, 0, len(t.threads))
	for tid := range t.threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		meta = append(meta, TraceEvent{
			Name: "thread_name",
			Ph:   "M",
			PID:  1,
			TID:  tid,
			Args: map[string]any{"name": t.threads[tid]},
		})
	}
	out := make([]TraceEvent, 0, len(meta)+len(t.events))
	out = append(out, meta...)
	for i := range t.events {
		ev := t.events[i].ev
		if t.events[i].taskArgs {
			ev.Args = map[string]any{
				"beg": t.events[i].taskBeg,
				"end": t.events[i].taskEnd,
				"deg": t.events[i].taskDeg,
			}
		}
		out = append(out, ev)
	}
	return out
}

// WriteJSON writes the trace as a Chrome trace_event JSON object.
func (t *Tracer) WriteJSON(w io.Writer) error {
	f := NewTraceFile(t.Events())
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// micros converts a duration to the trace format's microsecond unit,
// keeping nanosecond precision as a fraction.
func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}
