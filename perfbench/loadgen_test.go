package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must show up in the latencies of every request
// due during the stall, not only the one that hit it: the generator keeps
// its schedule and times requests from when they were due.
func TestOpenLoopKeepsStallsVisible(t *testing.T) {
	const stall = 150 * time.Millisecond
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 10 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	const rate, n = 200.0, 100 // one request every 5ms for 0.5s
	samples, err := runLoad(context.Background(), loadConfig{URL: srv.URL, Rate: rate, N: n, Senders: 1, Conns: 1}, func(int) []byte { return nil })
	if err != nil {
		t.Fatal(err)
	}
	times := timesOf(samples)
	slow := 0
	for _, s := range samples {
		if s.Err != nil || s.Status != http.StatusOK {
			t.Fatalf("request failed: %v status %d", s.Err, s.Status)
		}
		if s.latency() > 50*time.Millisecond {
			slow++
		}
	}
	// About stall/interval = 30 requests were due while the server stalled.
	// A closed-loop client timing from send would see just one slow request.
	if slow < 15 {
		t.Errorf("%d requests over 50ms, want the ~30 due during the stall", slow)
	}
	worst := 0.0
	for _, l := range times.latency {
		worst = math.Max(worst, l)
	}
	if worst < ms(stall)*0.8 {
		t.Errorf("worst latency %v ms hides a %v stall", worst, stall)
	}
	// With 100 samples the reporter's tail is p90: the tenth-slowest
	// request, still one that waited behind the stall.
	if tail := percentile(times.latency, 0.99); tail.Q != 0.9 || tail.Value < 50 {
		t.Errorf("latency tail %+v, want p90 above 50ms", tail)
	}
	if lag := percentile(times.lag, 0.99); lag.Value < ms(stall)/2 {
		t.Errorf("lag p99 %v ms: the generator's lateness behind the stall was not recorded", lag.Value)
	}
	// The schedule itself did not slow down.
	if last := samples[n-1].Due.Sub(samples[0].Due); last != time.Duration(float64(n-1)/rate*float64(time.Second)) {
		t.Errorf("last request due after %v", last)
	}
}

func TestLoadShapeRefusesMoreThanNproc(t *testing.T) {
	nproc := runtime.NumCPU()
	for _, tc := range []struct{ senders, conns int }{{nproc + 1, 1}, {1, nproc + 1}, {0, 1}, {1, 0}} {
		if err := checkLoadShape(tc.senders, tc.conns); err == nil {
			t.Errorf("%d senders, %d conns accepted with nproc=%d", tc.senders, tc.conns, nproc)
		}
		if _, err := runLoad(context.Background(), loadConfig{URL: "http://127.0.0.1:1", Rate: 1, N: 1, Senders: tc.senders, Conns: tc.conns}, nil); err == nil {
			t.Errorf("runLoad accepted %d senders, %d conns", tc.senders, tc.conns)
		}
	}
	if err := checkLoadShape(nproc, nproc); err != nil {
		t.Errorf("nproc senders and connections refused: %v", err)
	}
}
