package main

import (
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/serve"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		q       float64
		wantQ   float64
		wantVal float64
	}{
		{n: 1000, q: 0.99, wantQ: 0.99, wantVal: 990}, // 10 beyond: qualifies
		{n: 999, q: 0.99, wantQ: 989.0 / 999, wantVal: 989},
		{n: 100, q: 0.99, wantQ: 0.90, wantVal: 90},
		{n: 100, q: 0.50, wantQ: 0.50, wantVal: 50},
		{n: 11, q: 0.50, wantQ: 1.0 / 11, wantVal: 1},
	} {
		got := percentile(seq(tc.n), tc.q)
		if got.Value != tc.wantVal || math.Abs(got.Q-tc.wantQ) > 1e-12 || got.N != tc.n {
			t.Errorf("n=%d q=%v: got %+v, want value %v at q=%v", tc.n, tc.q, got, tc.wantVal, tc.wantQ)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d q=%v: only %d samples beyond the reported percentile", tc.n, tc.q, beyond)
		}
	}
	if got := percentile(seq(10), 0.5); !math.IsNaN(got.Value) {
		t.Errorf("10 samples: got %v, want NaN (nothing has ten samples beyond it)", got.Value)
	}
}

func TestPercentileCountsFailuresAsBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	if got := percentile(xs, 0.9); !math.IsInf(got.Value, 1) {
		t.Errorf("p90 with 20%% failed requests = %v, want +Inf", got.Value)
	}
}

func TestHistQuantileInterpolatesDelta(t *testing.T) {
	bounds := []float64{1, 2, 4}
	before := serve.HistogramSnapshot{Bounds: bounds, Counts: []uint64{5, 0, 0, 0}}
	// Between the snapshots: 50 observations in (1,2], 50 in (2,4].
	after := serve.HistogramSnapshot{Bounds: bounds, Counts: []uint64{5, 50, 50, 0}}
	if got := histQuantile(before, after, 0.5); got.N != 100 || got.Value != 2 {
		t.Errorf("p50 = %+v, want 2 over 100", got)
	}
	if got := histQuantile(before, after, 0.25); got.Value != 1.5 {
		t.Errorf("p25 = %+v, want 1.5", got)
	}
	if got := histQuantile(before, after, 0.99); got.Q != 0.9 || got.Value != 2+2*0.8 {
		t.Errorf("p99 of 100 = %+v, want q=0.9 at 3.6", got)
	}
}
