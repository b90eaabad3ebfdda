package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one batch,
// round or op share Req; Parent is the span that caused this one (0 for a
// root). Start and End are nanoseconds since the tracer was created. N is
// the span's work count where one applies (addresses in a shard request,
// records in a post), so ratios are measured where the work happens.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed code paths are the
// same in both modes apart from these calls.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns it with a fresh ID; finish closes it.
func (t *tracer) begin(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) finish(s span, n int) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	s.N = n
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newReq returns a request ID shared by every span of one batch, round or
// op.
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// byName groups the recorded spans by name.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval covered by its direct children (overlapping
// children, as in a parallel fan-out, are counted once).
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, time.Duration(s.End-s.Start-covered))
	}
	return out
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

func sumN(spans []span) int {
	n := 0
	for _, s := range spans {
		n += s.N
	}
	return n
}
