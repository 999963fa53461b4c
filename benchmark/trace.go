package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// tracer records spans in memory around the layer calls the benchmark
// makes, and per-batch stage timings aggregated under their parent span. A
// nil *tracer records nothing, so untraced repetitions pay one nil check per
// call. It is safe for concurrent use: the serve workload's generator and
// poller record spans from two goroutines.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	stages []stage
	index  map[stageKey]int
}

// span is one timed interval: a workload, a repetition, a run, an HTTP
// request. Times are nanoseconds since the tracer was created; Self is the
// duration not covered by child spans and stages, filled in by finish.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// stage aggregates the many short intervals of one replay stage under one
// parent span: how often it ran, for how long in total, and its self time
// (stages have no children, so self equals total).
type stage struct {
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Count  int64  `json:"count"`
	Total  int64  `json:"total_ns"`
	Self   int64  `json:"self_ns"`
}

type stageKey struct {
	parent int
	name   string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), index: map[stageKey]int{}}
}

// begin opens a span under parent (0 for a root) and returns its id; the
// id is 0 when t is nil.
func (t *tracer) begin(parent int, name, layer string) int {
	return t.beginAt(parent, name, layer, time.Now())
}

// beginAt opens a span whose start is given, for work that was due before
// the code reached it (an open-loop request that is sent late).
func (t *tracer) beginAt(parent int, name, layer string, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Start: start.Sub(t.origin).Nanoseconds()})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// stage adds one interval of the named stage under parent.
func (t *tracer) stage(parent int, name, layer string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := stageKey{parent, name}
	i, ok := t.index[k]
	if !ok {
		i = len(t.stages)
		t.index[k] = i
		t.stages = append(t.stages, stage{Parent: parent, Name: name, Layer: layer})
	}
	t.stages[i].Count++
	t.stages[i].Total += d.Nanoseconds()
}

// finish computes every self time: a span's duration minus the union of
// its children's intervals and its stages' totals.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	staged := make(map[int]int64)
	for i := range t.stages {
		t.stages[i].Self = t.stages[i].Total
		staged[t.stages[i].Parent] += t.stages[i].Total
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID]) - staged[s.ID]
	}
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}

// write stores the trace as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	blob, err := json.Marshal(struct {
		Spans  []span  `json:"spans"`
		Stages []stage `json:"stages"`
	}{t.spans, t.stages})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
