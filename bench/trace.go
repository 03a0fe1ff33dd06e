package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary.  Start and End are
// nanoseconds since the tracer started, Parent 0 marks a root span, and Req
// ties the client and server spans of one HTTP request together.  Self is
// the duration minus the part of it that child spans cover.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timer is an open span.  With a nil tracer it only measures its duration,
// so timing code is the same in traced and untraced runs.
type timer struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

func (t *tracer) begin(name string, parent int64) timer {
	tm := timer{tr: t, parent: parent, name: name, start: time.Now()}
	if t != nil {
		tm.id = t.next.Add(1)
	}
	return tm
}

// end closes the span and returns its duration.
func (tm timer) end() time.Duration {
	now := time.Now()
	if t := tm.tr; t != nil {
		s := span{ID: tm.id, Parent: tm.parent, Req: tm.req, Name: tm.name,
			Start: int64(tm.start.Sub(t.t0)), End: int64(now.Sub(t.t0))}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
	return now.Sub(tm.start)
}

// recorded returns a copy of the spans closed so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// finish returns the recorded spans in start order with self times filled.
func (t *tracer) finish() []span {
	spans := t.recorded()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	kids := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		covered, reach := int64(0), s.Start
		// Children come in start order, so one sweep merges their overlaps.
		for _, k := range kids[s.ID] {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return spans
}

// layerTime sums the spans of one name.
type layerTime struct {
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	SelfPct float64 `json:"self_pct"`
}

// byName aggregates span time per span name; SelfPct is the share of all
// self time, which sums to the traced wall time of the root spans.
func byName(spans []span) map[string]*layerTime {
	out := make(map[string]*layerTime)
	var all int64
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.TotalS += float64(s.End-s.Start) / 1e9
		lt.SelfS += float64(s.Self) / 1e9
		all += s.Self
	}
	for _, lt := range out {
		lt.SelfPct = 100 * lt.SelfS * 1e9 / float64(max(all, 1))
	}
	return out
}

// writeTrace writes the spans and their per-name summary as one JSON file.
func writeTrace(path, workload string, spans []span) error {
	b, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		ByName   map[string]*layerTime `json:"by_name"`
		Spans    []span                `json:"spans"`
	}{workload, byName(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
