package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
// Times are nanoseconds since the tracer started.
type span struct {
	Name   string           `json:"name"`
	Trace  string           `json:"trace"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced passes call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall time into the tracer's clock.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// openSpan is a span whose end is not yet known.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin starts a span under parent (0 = a root span).
func (t *tracer) begin(name, trace string, parent int64) *openSpan {
	o := &openSpan{t: t, start: time.Now()}
	if t == nil {
		return o
	}
	// Parents are recorded only once they end, so children refer to a
	// reserved ID.
	t.mu.Lock()
	t.spans = append(t.spans, span{})
	o.s = span{Name: name, Trace: trace, ID: int64(len(t.spans)), Parent: parent, Start: t.at(o.start)}
	t.mu.Unlock()
	return o
}

// id is the span's ID, for children to name as parent.
func (o *openSpan) id() int64 { return o.s.ID }

// end closes the span with optional counts and returns its duration.
func (o *openSpan) end(counts map[string]int64) time.Duration {
	now := time.Now()
	if o.t != nil {
		o.s.End, o.s.Counts = o.t.at(now), counts
		o.t.mu.Lock()
		o.t.spans[o.s.ID-1] = o.s
		o.t.mu.Unlock()
	}
	return now.Sub(o.start)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// totals sums durations and span counts per name.
func totals(spans []span) (dur map[string]int64, n map[string]int64) {
	dur, n = map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		dur[s.Name] += s.dur()
		n[s.Name]++
	}
	return dur, n
}
