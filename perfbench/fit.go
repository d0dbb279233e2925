package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/metrics"
)

// A run repeats its set-up at least setupReps times and for at least
// setupMin, and setup_s is the median: one slow set-up does not move it, and
// a set-up of a few milliseconds is timed over many repeats.
const (
	setupReps = 3
	setupMin  = time.Second
)

// repeatSetup runs fn under a "setup" span per repeat and puts the median
// wall time as setup_s.
func (r *run) repeatSetup(fn func(parent int) error) error {
	var times []float64
	for begin := time.Now(); len(times) < setupReps || time.Since(begin) < setupMin; {
		id, end := r.tr.Open("setup", 0)
		start := time.Now()
		err := fn(id)
		times = append(times, time.Since(start).Seconds())
		end()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	r.put("setup_s", median(times))
	return nil
}

// iterClock is a context that never cancels. The trainer polls Err once at
// the start of every iteration, so the poll times mark the iteration
// boundaries from outside the fit.
type iterClock struct {
	context.Context
	marks []time.Time
}

func newIterClock() *iterClock { return &iterClock{Context: context.Background()} }

func (c *iterClock) Err() error {
	c.marks = append(c.marks, time.Now())
	return nil
}

// fitRun is one timed fit.
type fitRun struct {
	model      *core.Model
	start, end time.Time
	marks      []time.Time // iteration starts
	allocBytes uint64
}

func (f fitRun) wall() time.Duration { return f.end.Sub(f.start) }

// iterDurations are the per-iteration wall times: from each iteration's
// start to the next one's, the last one ending when the fit returns.
func (f fitRun) iterDurations() []time.Duration {
	out := make([]time.Duration, len(f.marks))
	for i, m := range f.marks {
		next := f.end
		if i+1 < len(f.marks) {
			next = f.marks[i+1]
		}
		out[i] = next.Sub(m)
	}
	return out
}

// timedFit runs fit once with an iteration clock as its context.
func timedFit(fit func(ctx context.Context) (*core.Model, error)) (fitRun, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clock := newIterClock()
	start := time.Now()
	model, err := fit(clock)
	end := time.Now()
	runtime.ReadMemStats(&after)
	if model != nil {
		model.Config.Ctx = nil // the clock must not outlive the fit
	}
	return fitRun{model: model, start: start, end: end, marks: clock.marks,
		allocBytes: after.TotalAlloc - before.TotalAlloc}, err
}

// traceFit records a fit as a span with one child span per iteration.
func (r *run) traceFit(name string, parent int, f fitRun) int {
	id := r.tr.Add(name, parent, 0, f.start, f.end)
	durs := f.iterDurations()
	for i, m := range f.marks {
		r.tr.Add("core.iter", id, 0, m, m.Add(durs[i]))
	}
	return id
}

// fitMetrics turns the measured phase's fits into fit-paper's end-to-end
// metrics. good marks the fits whose output checks passed; a
// failed fit counts as zero goodput.
func (r *run) fitMetrics(fits []fitRun, good []bool, rms float64) {
	var walls, allocs, iters, rates []float64
	for i, f := range fits {
		walls = append(walls, f.wall().Seconds())
		allocs = append(allocs, float64(f.allocBytes)/(1<<20))
		for _, d := range f.iterDurations() {
			iters = append(iters, ms(d))
		}
		rate := 0.0
		if good[i] {
			rate = float64(len(f.marks)) / f.wall().Seconds()
		}
		rates = append(rates, rate)
	}
	p50, p99 := percentile(iters, 0.50), percentile(iters, 0.99)
	r.logf("iteration latency p50 %.3f ms (q=%.3f) p99 %.3f ms (q=%.3f) over %d iterations of %d fits",
		p50.Value, p50.Q, p99.Value, p99.Q, p99.N, len(fits))
	r.put("fit_s", median(walls))
	r.put("alloc_mb", median(allocs))
	r.put("p50_ms", p50.Value)
	r.put("goodput_rps", median(rates))
	r.put("impute_rms", rms)
}

// imputeRMS scores a model's reconstruction on the table's hidden cells
// (paper §IV-A2: RMS over the imputed cells, normalized units).
func imputeRMS(model *core.Model, tbl *table) (float64, error) {
	return metrics.RMSOverHidden(model.Predict(), tbl.truth, tbl.mask)
}

// columnMeanRMS is the RMS of imputing every hidden cell with its column's
// observed mean: the baseline SMFL must beat.
func columnMeanRMS(tbl *table) (float64, error) {
	n, m := tbl.x.Dims()
	pred := mat.NewDense(n, m)
	for j := 0; j < m; j++ {
		var sum float64
		cnt := tbl.mask.ColObservedCount(j)
		for i := 0; i < n; i++ {
			if tbl.mask.Observed(i, j) {
				sum += tbl.x.At(i, j)
			}
		}
		for i := 0; i < n; i++ {
			pred.Set(i, j, sum/float64(max(cnt, 1)))
		}
	}
	return metrics.RMSOverHidden(pred, tbl.truth, tbl.mask)
}

func finiteModel(m *core.Model) bool { return m.U.IsFinite() && m.V.IsFinite() }

func finalObjective(m *core.Model) float64 {
	if len(m.Objective) == 0 {
		return math.NaN()
	}
	return m.Objective[len(m.Objective)-1]
}

// fitPaper is SMFL at the library defaults on the paper-scale Vehicle table,
// as `smfl impute` runs it.
func fitPaper(r *run) error {
	var tbl *table
	if err := r.repeatSetup(func(int) error {
		var err error
		tbl, err = paperTable(r.seed)
		return err
	}); err != nil {
		return err
	}
	cfg := core.Config{Seed: tableSeed}
	fit := func(ctx context.Context) (*core.Model, error) {
		c := cfg
		c.Ctx = ctx
		return core.Fit(tbl.x, tbl.mask, tbl.l, core.SMFL, c)
	}
	if r.tr.on {
		return fitLayers(r, tbl, fit)
	}
	baseline, err := columnMeanRMS(tbl)
	if err != nil {
		return err
	}
	var fits []fitRun
	var good []bool
	var rms float64
	firstObj := math.NaN() // every fit must end on the first one's objective
	for deadline := time.Now().Add(r.phase()); len(fits) == 0 || time.Now().Before(deadline); {
		f, err := timedFit(fit)
		r.attempted++
		ok := false
		switch {
		case err != nil:
			r.fail("fit %d: %v", len(fits), err)
		case !finiteModel(f.model):
			r.fail("fit %d: non-finite factors", len(fits))
		case len(fits) > 0 && math.Float64bits(finalObjective(f.model)) != math.Float64bits(firstObj):
			r.fail("fit %d: objective %v differs from the first fit's %v", len(fits), finalObjective(f.model), firstObj)
		default:
			if len(fits) == 0 {
				firstObj = finalObjective(f.model)
			}
			if rms, err = imputeRMS(f.model, tbl); err != nil || !(rms < baseline) {
				r.fail("fit %d: impute RMS %v does not beat column means %v (%v)", len(fits), rms, baseline, err)
				break
			}
			ok = true
		}
		f.model = nil // keep one fit's factors alive at a time
		fits = append(fits, f)
		good = append(good, ok)
	}
	r.logf("impute RMS %.6f vs column means %.6f", rms, baseline)
	r.fitMetrics(fits, good, rms)
	return nil
}

func (r *run) phase() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }
