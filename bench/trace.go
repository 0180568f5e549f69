package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the bench made into the system, or one layer
// probe. Times are nanoseconds since the tracer was created; Parent is
// the index of the enclosing span plus one (0 = none); Phase groups the
// spans of one workload phase.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Phase  int    `json:"phase"`
	// DueNs and Count describe a bench.inject span: when the batch was
	// due (ns since the phase began) and how many tuples it carried.
	DueNs int64 `json:"due_ns,omitempty"`
	Count int   `json:"count,omitempty"`
}

// sample is one 250 ms poll of Job.MetricsSnapshot, as deltas of the
// counters since the previous poll.
type sample struct {
	AtNs   int64            `json:"at_ns"`
	Deltas map[string]int64 `json:"deltas"`
}

// tracer keeps spans in memory and writes them when the workload ends.
// A nil tracer records nothing, which is how the untraced run works:
// every method is safe to call on nil.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	phase   int
	spans   []span
	samples []sample
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (a value begin returned, or 0) and
// returns its handle.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Phase: t.phase})
	return len(t.spans)
}

func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[h-1].End = now
	t.mu.Unlock()
}

// endInject closes a bench.inject span with its due time and size.
func (t *tracer) endInject(h int, due time.Duration, count int) {
	if t == nil || h == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	s := &t.spans[h-1]
	s.End, s.DueNs, s.Count = now, int64(due), count
	t.mu.Unlock()
}

// nextPhase starts a new phase id; spans opened from now on carry it.
func (t *tracer) nextPhase() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase++
	t.mu.Unlock()
}

func (t *tracer) addSample(deltas map[string]int64) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.samples = append(t.samples, sample{AtNs: now, Deltas: deltas})
	t.mu.Unlock()
}

// write stores the trace as one JSON document.
func (t *tracer) write(path, workload string, seed int64, layers map[string]metric) error {
	t.mu.Lock()
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Spans    []span            `json:"spans"`
		Samples  []sample          `json:"metrics_poll"`
		Layers   map[string]metric `json:"per_layer"`
	}{workload, seed, t.spans, t.samples, layers}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
