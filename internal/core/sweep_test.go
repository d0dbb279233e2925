package core

import (
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// denseStep is one iteration of the naive dense transcription of an updater:
// every product is materialized and nothing is cached across iterations.
// It updates u and v in place and returns the objective of the result.
type denseStep func(u, v *mat.Dense, lr float64) float64

// newDenseReference builds the dense transcription of Formulas 13/14
// (multiplicative) or of the projected gradient step of Section III-B1 over
// the same inputs as the fused updaters.
func newDenseReference(x *mat.Dense, omega *mat.Mask, graph *spatial.Graph, c0 int, updater Updater, cfg Config) denseStep {
	rx := omega.Project(nil, x)
	d := graph.DenseD()
	lap := graph.DenseL()
	n, _ := x.Dims()
	deg := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		deg.Set(i, i, graph.Degree(i))
	}
	lam, eps := cfg.Lambda, cfg.Eps
	residual := func(u, v *mat.Dense) *mat.Dense { return omega.Project(nil, mat.Mul(nil, u, v)) }
	return func(u, v *mat.Dense, lr float64) float64 {
		k, m := v.Dims()
		uv := residual(u, v)
		xvt, uvvt := mat.MulBT(nil, rx, v), mat.MulBT(nil, uv, v)
		if updater == Multiplicative {
			num := mat.AddScaled(nil, xvt, lam, mat.Mul(nil, d, u))
			den := mat.AddScaled(nil, uvvt, lam, mat.Mul(nil, deg, u))
			for i, nv := range num.Data() {
				u.Data()[i] *= nv / (den.Data()[i] + eps)
			}
		} else {
			grad := mat.AddScaled(nil, mat.Sub(nil, uvvt, xvt), lam, mat.Mul(nil, lap, u))
			mat.AddScaled(u, u, -2*lr, grad)
			u.ClampMin(0)
		}
		uv = residual(u, v)
		utx, utuv := mat.MulAT(nil, u, rx), mat.MulAT(nil, u, uv)
		for t := 0; t < k; t++ {
			for j := c0; j < m; j++ {
				if updater == Multiplicative {
					v.Set(t, j, v.At(t, j)*utx.At(t, j)/(utuv.At(t, j)+eps))
				} else {
					v.Set(t, j, math.Max(0, v.At(t, j)-2*lr*(utuv.At(t, j)-utx.At(t, j))))
				}
			}
		}
		obj := omega.MaskedFrob2(x, mat.Mul(nil, u, v))
		return obj + lam*mat.Dot(u, mat.Mul(nil, lap, u))
	}
}

// startFactors rebuilds the SMFL starting point and p-NN graph exactly as
// Fit does, without running it.
func startFactors(t *testing.T, x *mat.Dense, omega *mat.Mask, l int, cfg Config) (u, v *mat.Dense, graph *spatial.Graph) {
	t.Helper()
	si := siFilled(x, omega, l)
	graph, ix, err := buildSpatial(si, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := landmarksFor(si, ix, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, m := x.Dims()
	model := &Model{Method: SMFL, Config: cfg, L: l, C: c}
	initFactors(model, n, m)
	injectLandmarks(model.V, c)
	return model.U, model.V, graph
}

func sameTrajectory(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fit recorded %d objectives, dense reference %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*math.Abs(want[i]) {
			t.Fatalf("objective[%d] = %.17g, dense reference %.17g (fit %v, reference %v)", i, got[i], want[i], got, want)
		}
	}
}

// TestSweepCacheRecomputedAfterHookMutation: the full-sweep updaters reuse
// the objective pass's R_Ω(UV) in the next U step, so a FitIter hook that
// rewrites U in place must invalidate that cache. The fused fit, with U
// scaled by 1.5 at iteration 2, must follow the dense reference that
// recomputes every product; a fit that kept the stale product would not.
func TestSweepCacheRecomputedAfterHookMutation(t *testing.T) {
	x, omega, l := testProblem(t, 30, 4)
	for _, updater := range []Updater{Multiplicative, GradientDescent} {
		t.Run(updater.String(), func(t *testing.T) {
			cfg := Config{K: 3, Lambda: 0.1, P: 3, MaxIter: 6, Tol: 1e-15, Seed: 2, Updater: updater}.withDefaults()
			defer faultinject.Reset()
			faultinject.Enable(faultinject.FitIter, func(p any) error {
				if f := p.(*FitFault); f.Iter == 2 {
					mat.Scale(f.U, 1.5, f.U)
				}
				return nil
			})
			model, err := Fit(x, omega, l, SMFL, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if model.Recoveries != 0 {
				t.Fatalf("unexpected watchdog rollbacks: %d", model.Recoveries)
			}
			u, v, graph := startFactors(t, x, omega, l, cfg)
			step := newDenseReference(x, omega, graph, l, updater, cfg)
			var want []float64
			for it := 0; it < cfg.MaxIter; it++ {
				if it == 2 {
					mat.Scale(u, 1.5, u)
				}
				want = append(want, step(u, v, cfg.LearningRate))
			}
			sameTrajectory(t, model.Objective, want)
		})
	}
}

// TestSweepCacheRecomputedAfterRollback: a watchdog rollback restores U and
// V to the last healthy iteration, so the R_Ω(UV) cached by the rejected
// iteration's objective must not reach the retry. A gradient-descent fit
// whose step is too large to start with explodes, rolls back and halves its
// step; its trajectory must follow a dense reference that replays the same
// watchdog rule with no cache at all.
func TestSweepCacheRecomputedAfterRollback(t *testing.T) {
	x, omega, l := testProblem(t, 30, 4)
	cfg := Config{K: 3, Lambda: 0.1, P: 3, MaxIter: 8, Tol: 1e-15, Seed: 2,
		Updater: GradientDescent, LearningRate: 0.5}.withDefaults()
	// No fault hook is armed, so only the rollback can invalidate the cache.
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.Recoveries == 0 {
		t.Fatal("the step never exploded: the test does not exercise a rollback")
	}
	u, v, graph := startFactors(t, x, omega, l, cfg)
	step := newDenseReference(x, omega, graph, l, GradientDescent, cfg)
	var want []float64
	scale, retries := 1.0, 0
	for len(want) < cfg.MaxIter {
		goodU, goodV := u.Clone(), v.Clone()
		obj := step(u, v, cfg.LearningRate*scale)
		exploded := len(want) > 0 && obj > cfg.WatchdogExplode*math.Max(want[len(want)-1], 1e-9)
		if math.IsNaN(obj) || math.IsInf(obj, 0) || exploded {
			if retries++; retries > cfg.WatchdogRetries {
				t.Fatal("dense reference exhausted the watchdog budget")
			}
			u.CopyFrom(goodU)
			v.CopyFrom(goodV)
			scale *= 0.5
			continue
		}
		retries = 0
		want = append(want, obj)
	}
	sameTrajectory(t, model.Objective, want)
}
