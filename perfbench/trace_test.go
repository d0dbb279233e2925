package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "fit", Start: at(0), End: at(100)},
		// Two overlapping children: together they cover [10, 50].
		{ID: 2, Parent: 1, Name: "iter", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "iter", Start: at(30), End: at(50)},
		// A grandchild: covers part of span 2 only, not of the root.
		{ID: 4, Parent: 2, Name: "kernel", Start: at(15), End: at(25)},
		// A child running past its parent's end is clipped to [90, 100].
		{ID: 5, Parent: 1, Name: "iter", Start: at(90), End: at(120)},
		{ID: 6, Name: "other", Start: at(200), End: at(210)},
	}
	want := map[int]time.Duration{
		1: at(100 - 40 - 10),
		2: at(30 - 10),
		3: at(20),
		4: at(10),
		5: at(30),
		6: at(10),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
	sum := summarize(spans)
	if s := sum["iter"]; s.Count != 3 || s.TotalMS != 80 || s.SelfMS != 70 || s.MedianMS != 30 {
		t.Errorf("iter summary %+v, want 3 spans, 80ms total, 70ms self, median 30ms", s)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	now := time.Now()
	if id := tr.Add("x", 0, 0, now, now); id != 0 {
		t.Errorf("disabled tracer handed out ID %d", id)
	}
	_, end := tr.Open("y", 0)
	end()
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("disabled tracer kept %d spans", n)
	}
	on := newTracer(true)
	id, end := on.Open("parent", 0)
	on.Add("child", id, 7, now, now)
	end()
	spans := on.Spans()
	if len(spans) != 2 || spans[1].Parent != id || spans[1].Req != 7 || spans[0].End < spans[0].Start {
		t.Errorf("spans %+v", spans)
	}
}
