package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Times are offsets from
// the tracer's epoch. Parent is the ID of the span that caused it (0 for a
// root); spans of one served request share Req.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    int           `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and hands out ID 0, so untraced runs pay one branch per
// call site.
type Tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *Tracer { return &Tracer{on: on, epoch: time.Now()} }

// Add records a finished span and returns its ID.
func (t *Tracer) Add(name string, parent, req int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// Open records a span whose end is filled in by the returned closer; child
// spans recorded in between can name it as their parent.
func (t *Tracer) Open(name string, parent int) (id int, end func()) {
	if !t.on {
		return 0, func() {}
	}
	start := time.Now()
	id = t.Add(name, parent, 0, start, start)
	return id, func() {
		now := time.Now().Sub(t.epoch)
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes maps each span ID to its duration minus the part of its
// interval that its direct children cover. Overlapping children (parallel
// work under one parent) are merged first, so covered time is never
// counted twice, and child time outside the parent's interval is clipped.
func selfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, children []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
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

// layerSummary is the per-name aggregate of a span set: how many spans,
// their total and median wall time, and their total self time.
type layerSummary struct {
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	MedianMS float64 `json:"median_ms"`
	SelfMS   float64 `json:"self_ms"`
}

func summarize(spans []Span) map[string]layerSummary {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	out := make(map[string]layerSummary)
	for _, s := range spans {
		ls := out[s.Name]
		ls.Count++
		ls.TotalMS += ms(s.Dur())
		ls.SelfMS += ms(self[s.ID])
		out[s.Name] = ls
		durs[s.Name] = append(durs[s.Name], ms(s.Dur()))
	}
	for name, ls := range out {
		ls.MedianMS = median(durs[name])
		out[name] = ls
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeTrace writes the spans, their per-name summary and the environment
// record as one JSON document under dir.
func writeTrace(dir, workload string, seed int64, env Env, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+"-seed"+itoa(seed)+".json")
	doc := struct {
		Workload string                  `json:"workload"`
		Seed     int64                   `json:"seed"`
		Env      Env                     `json:"env"`
		Summary  map[string]layerSummary `json:"summary"`
		Spans    []Span                  `json:"spans"`
	}{workload, seed, env, summarize(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
