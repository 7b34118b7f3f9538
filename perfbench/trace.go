package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around a public entry point: spec → build → run for a sweep point, job →
// first row → trailer for a service job, and one span per probe. Parent is
// the ID of the enclosing span (0 at the top); Item names the point or job
// the span belongs to, so the spans of one request can be grouped.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Item   string `json:"item"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path pays one nil check per span.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name, item string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Item: item,
		Start: time.Since(t.origin).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin).Nanoseconds()
}

// add records an already-timed span whose start and end the caller took.
func (t *tracer) add(name, item string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Item: item,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return len(t.spans)
}

// selfTime is one row of the per-name summary: how many spans, their total
// duration, and their self time — the duration minus the part of it that
// child spans cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes summarizes spans per name, sorted by self time, largest first.
// Children of one span are assumed not to overlap each other, which holds
// for everything the benchmark records: it calls layers one at a time.
func selfTimes(spans []span) []selfTime {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-covered[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// write stores every span and the self-time summary as one JSON file.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Self  []selfTime `json:"self_time"`
		Spans []span     `json:"spans"`
	}{selfTimes(t.spans), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
