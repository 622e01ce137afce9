package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Times are
// offsets from the recorder's origin. Parent is the index of the span that
// caused this one, or -1 for a root.
type span struct {
	Name     string
	Workload string
	Lane     int // Chrome-trace thread id: spans that overlap use different lanes
	Parent   int
	Start    time.Duration
	End      time.Duration
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is how the untraced pass runs.
type recorder struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{origin: time.Now(), workload: workload}
}

// begin opens a span and returns its id for end and for children's parent.
func (r *recorder) begin(name string, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Lane: lane, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// closed returns the spans that were ended, with parents re-indexed.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]int, len(r.spans))
	var out []span
	for i, s := range r.spans {
		if s.End < 0 {
			idx[i] = -1
			continue
		}
		idx[i] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			out[i].Parent = idx[p]
		}
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (queries in flight together), so the covered part is the union of their
// intervals clipped to the parent, not the sum.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// chrome://tracing and ui.perfetto.dev load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the ended spans as Chrome-trace JSON.
func writeChrome(path string, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": s.Workload, "self_us": float64(self[i]) / 1e3},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
