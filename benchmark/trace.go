package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one operation share op; parent is the index of
// the enclosing span on the same track, −1 at the root.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int32
	op         int64
}

// track is one client's (or probe's) span list. Only its owner appends, so
// recording takes no lock. A nil track records nothing: that is tracing off.
type track struct {
	origin time.Time
	spans  []span
}

type tracer struct {
	origin time.Time
	tracks []*track
}

func newTracer(tracks int) *tracer {
	tr := &tracer{origin: time.Now()}
	for i := 0; i < tracks; i++ {
		tr.tracks = append(tr.tracks, &track{origin: tr.origin, spans: make([]span, 0, 1<<14)})
	}
	return tr
}

// track returns the i-th track; nil when tr is nil.
func (tr *tracer) track(i int) *track {
	if tr == nil {
		return nil
	}
	return tr.tracks[i]
}

// add records a finished span and returns its index for use as a parent.
func (t *track) add(name string, parent int32, op int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds(), parent, op})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is not known yet; close sets it.
func (t *track) open(name string, parent int32, op int64, start time.Time) int32 {
	return t.add(name, parent, op, start, start)
}

func (t *track) close(i int32, end time.Time) {
	if t != nil {
		t.spans[i].end = end.Sub(t.origin).Nanoseconds()
	}
}

// selfTime is a span name's total self time: each span's duration minus
// its children's, summed, with the number of spans.
type selfTime struct {
	name  string
	count int
	total time.Duration
}

func (tr *tracer) selfTimes() []selfTime {
	acc := map[string]*selfTime{}
	for _, t := range tr.tracks {
		self := make([]int64, len(t.spans))
		for i, s := range t.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range t.spans {
			a := acc[s.name]
			if a == nil {
				a = &selfTime{name: s.name}
				acc[s.name] = a
			}
			a.count++
			a.total += time.Duration(self[i])
		}
	}
	out := make([]selfTime, 0, len(acc))
	for _, a := range acc {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, one tid per track), loadable in chrome://tracing or Perfetto.
func (tr *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for tid, t := range tr.tracks {
		for i, s := range t.spans {
			events = append(events, event{
				Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: tid, Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
