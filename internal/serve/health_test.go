package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// newTestHealth wires a Health to the fakeClock from admission_test.go so
// the probe cadence is deterministic.
func newTestHealth(cfg HealthConfig) (*Health, *fakeClock) {
	h := NewHealth(cfg)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h.now = clk.now
	return h, clk
}

func TestHealthTripsOnFailureRate(t *testing.T) {
	h, _ := newTestHealth(HealthConfig{WindowSize: 8, MinSamples: 4, FailureRate: 0.5})
	if h.State() != Healthy || h.Breaker() != BreakerClosed || h.Route() != RouteReal {
		t.Fatal("fresh Health not healthy/closed/real")
	}
	// Three failures among four samples: under MinSamples until the fourth.
	h.Report(false, 0, false)
	h.Report(false, 0, false)
	h.Report(true, time.Millisecond, false)
	if h.State() != Healthy {
		t.Fatal("tripped below MinSamples")
	}
	h.Report(false, 0, false)
	if h.State() != Degraded || h.Breaker() != BreakerOpen {
		t.Fatalf("state %v breaker %v after 3/4 failures, want degraded/open", h.State(), h.Breaker())
	}
	if h.Trips() != 1 {
		t.Fatalf("trips = %d", h.Trips())
	}
}

func TestHealthTripsOnLatencyP95(t *testing.T) {
	h, _ := newTestHealth(HealthConfig{WindowSize: 8, MinSamples: 4, FailureRate: 0.99, LatencyP95: 100 * time.Millisecond})
	for i := 0; i < 4; i++ {
		h.Report(true, 500*time.Millisecond, false) // all succeed, all slow
	}
	if h.State() != Degraded {
		t.Fatal("slow successes did not trip the latency condition")
	}
}

func TestHealthProbeCadenceAndRecovery(t *testing.T) {
	h, clk := newTestHealth(HealthConfig{
		WindowSize: 4, MinSamples: 2, FailureRate: 0.5,
		ProbeEvery: 100 * time.Millisecond, ProbeSuccesses: 2,
	})
	h.Report(false, 0, false)
	h.Report(false, 0, false)
	if h.State() != Degraded {
		t.Fatal("not degraded")
	}
	// Immediately after the trip the probe timer restarts: fallback only.
	if r := h.Route(); r != RouteFallback {
		t.Fatalf("route %v right after trip, want fallback", r)
	}
	clk.advance(150 * time.Millisecond)
	if r := h.Route(); r != RouteProbe {
		t.Fatalf("route %v after ProbeEvery elapsed, want probe", r)
	}
	// The slot is claimed: concurrent requests keep falling back.
	if r := h.Route(); r != RouteFallback {
		t.Fatalf("route %v while probe in flight, want fallback", r)
	}
	// Probe failure resets the count and restarts the cadence.
	h.Report(false, 0, true)
	if h.Breaker() != BreakerOpen {
		t.Fatalf("breaker %v after failed probe, want open", h.Breaker())
	}
	clk.advance(150 * time.Millisecond)
	if r := h.Route(); r != RouteProbe {
		t.Fatal("no new probe after failed one")
	}
	h.Report(true, time.Millisecond, true)
	if h.Breaker() != BreakerHalfOpen {
		t.Fatalf("breaker %v after one good probe, want half-open", h.Breaker())
	}
	if h.State() != Degraded {
		t.Fatal("closed after one of two required probe successes")
	}
	clk.advance(150 * time.Millisecond)
	if r := h.Route(); r != RouteProbe {
		t.Fatal("no second probe")
	}
	h.Report(true, time.Millisecond, true)
	if h.State() != Healthy || h.Breaker() != BreakerClosed {
		t.Fatalf("state %v breaker %v after recovery, want healthy/closed", h.State(), h.Breaker())
	}
	// The window was reset: old failures must not re-trip instantly.
	h.Report(false, 0, false)
	if h.State() != Healthy {
		t.Fatal("stale window survived recovery")
	}
}

func TestHealthAbortReleasesProbeSlot(t *testing.T) {
	h, clk := newTestHealth(HealthConfig{
		WindowSize: 4, MinSamples: 2, FailureRate: 0.5,
		ProbeEvery: 100 * time.Millisecond, ProbeSuccesses: 1,
	})
	h.Report(false, 0, false)
	h.Report(false, 0, false)
	clk.advance(150 * time.Millisecond)
	if h.Route() != RouteProbe {
		t.Fatal("no probe")
	}
	// The probe was shed before testing the real path: slot released, cadence
	// backed off so the next probe waits a full interval.
	h.Abort(true)
	if h.Route() != RouteFallback {
		t.Fatal("aborted probe did not back off the cadence")
	}
	clk.advance(150 * time.Millisecond)
	if h.Route() != RouteProbe {
		t.Fatal("no probe after backoff interval")
	}
	h.Report(true, time.Millisecond, true)
	if h.State() != Healthy {
		t.Fatal("single-success recovery failed")
	}
}

func TestHealthDrainingIsTerminal(t *testing.T) {
	h, _ := newTestHealth(HealthConfig{WindowSize: 4, MinSamples: 2})
	h.SetDraining()
	if h.State() != Draining || !h.Draining() {
		t.Fatal("not draining")
	}
	if h.State().String() != "draining" {
		t.Fatalf("draining String() = %q", h.State().String())
	}
	// Outcomes while draining change nothing.
	h.Report(false, 0, false)
	h.Report(false, 0, false)
	h.Report(false, 0, false)
	if h.State() != Draining {
		t.Fatal("left draining")
	}
	if h.Breaker() != BreakerClosed {
		t.Fatalf("breaker %v while draining, want closed (moot)", h.Breaker())
	}
}

func TestHealthLateReportsAfterTripIgnored(t *testing.T) {
	h, _ := newTestHealth(HealthConfig{WindowSize: 4, MinSamples: 2, FailureRate: 0.5, ProbeSuccesses: 1})
	h.Report(false, 0, false)
	h.Report(false, 0, false)
	if h.State() != Degraded {
		t.Fatal("not degraded")
	}
	// A request admitted before the trip reports late: it must not touch the
	// half-open bookkeeping.
	h.Report(true, time.Millisecond, false)
	if h.Breaker() != BreakerOpen {
		t.Fatalf("late non-probe report moved the breaker to %v", h.Breaker())
	}
}

// TestHealthCountersMatchSortedP95 drives random outcome streams through
// Health and through the sort-based rule the running counts replace: trip
// when the window has MinSamples outcomes and either the failure share
// reaches FailureRate or quantile(successes, 0.95) exceeds LatencyP95. The
// streams straddle LatencyP95 to the nanosecond, wrap the window many times,
// and go through trip → reset → probe recovery; the two decisions must agree
// at every Report.
func TestHealthCountersMatchSortedP95(t *testing.T) {
	type sample struct {
		ok  bool
		lat float64
	}
	const p95 = 100 * time.Millisecond
	edge := []time.Duration{p95 - time.Nanosecond, p95, p95 + time.Nanosecond, 2 * p95}
	rng := rand.New(rand.NewSource(11))
	var latencyTrips, failureTrips, wraps, recoveries int
	for trial := 0; trial < 300; trial++ {
		cfg := HealthConfig{
			WindowSize:     1 + rng.Intn(70),
			MinSamples:     1 + rng.Intn(40),
			FailureRate:    []float64{0.3, 0.5, 0.9, 1}[rng.Intn(4)],
			LatencyP95:     p95,
			ProbeEvery:     time.Second,
			ProbeSuccesses: 1 + rng.Intn(3),
		}
		h, clk := newTestHealth(cfg)
		cfg = h.cfg // with defaults: MinSamples ≤ WindowSize
		// Mostly-healthy streams wrap the window; heavier ones trip it.
		failP, edgeP := math.Pow(rng.Float64(), 2)*0.6, math.Pow(rng.Float64(), 3)*0.3
		var window []sample
		reported := 0
		for step := 0; step < 400; step++ {
			if h.State() == Degraded {
				// Recover through half-open probes; a late non-probe report
				// in between must change nothing.
				h.Report(false, 0, false)
				clk.advance(cfg.ProbeEvery)
				if r := h.Route(); r != RouteProbe {
					t.Fatalf("trial %d step %d: route %v while degraded, want probe", trial, step, r)
				}
				h.Report(rng.Float64() < 0.8, time.Millisecond, true)
				if h.State() == Healthy {
					recoveries++
					window = window[:0]
				}
				continue
			}
			ok := rng.Float64() >= failP
			lat := time.Duration(rng.Int63n(int64(p95)))
			if rng.Float64() < edgeP {
				lat = edge[rng.Intn(len(edge))]
			}
			s := sample{ok: ok}
			if ok {
				s.lat = lat.Seconds()
			}
			window = append(window, s)
			reported++
			if len(window) > cfg.WindowSize {
				window = window[1:]
				wraps++
			}
			fails := 0
			var succ []float64
			for _, w := range window {
				if w.ok {
					succ = append(succ, w.lat)
				} else {
					fails++
				}
			}
			failTrip := float64(fails)/float64(len(window)) >= cfg.FailureRate
			latTrip := len(succ) > 0 && quantile(succ, 0.95) > cfg.LatencyP95.Seconds()
			want := len(window) >= cfg.MinSamples && (failTrip || latTrip)

			h.Report(ok, lat, false)
			if got := h.State() == Degraded; got != want {
				t.Fatalf("trial %d (%+v) report %d: tripped=%v, sort-based rule says %v (window %v)",
					trial, cfg, reported, got, want, window)
			}
			if want {
				if failTrip {
					failureTrips++
				} else {
					latencyTrips++
				}
				window = window[:0]
			}
		}
	}
	t.Logf("trips: %d latency, %d failure; %d window wraps; %d recoveries", latencyTrips, failureTrips, wraps, recoveries)
	if latencyTrips == 0 || failureTrips == 0 || wraps == 0 || recoveries == 0 {
		t.Fatal("the streams missed a case: every trip cause, a wrap and a recovery must occur")
	}
}

// TestHealthReportAllocFree: a Report on a full window allocates nothing —
// the breaker decides from running counts, not a sorted copy of the window.
func TestHealthReportAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	h, _ := newTestHealth(HealthConfig{WindowSize: 64, MinSamples: 16, FailureRate: 0.9, LatencyP95: time.Second})
	i := 0
	report := func() {
		// Mix fast, slow and failed outcomes below both trip bars: a
		// quarter failed, two slow successes per window.
		switch {
		case i%4 == 0:
			h.Report(false, 0, false)
		case i%32 == 1:
			h.Report(true, 2*time.Second, false)
		default:
			h.Report(true, time.Millisecond, false)
		}
		i++
	}
	for j := 0; j < 64; j++ {
		h.Report(true, time.Millisecond, false) // fill the window
	}
	for j := 0; j < 64; j++ {
		report()
	}
	if allocs := testing.AllocsPerRun(1000, report); allocs != 0 {
		t.Fatalf("Report on a full window made %v allocations, want 0", allocs)
	}
	if h.State() != Healthy {
		t.Fatal("the alloc stream tripped the breaker")
	}
}
