package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// Fit factorizes x ≈ U·V under the given method. omega marks the observed
// entries Ω (nil means fully observed); l is the number of leading SI
// columns. The input must be nonnegative over Ω — normalize to [0,1] first
// (Section IV-A1).
//
// The SMFL pipeline follows Algorithm 1: build D and W from SI (filling
// missing SI cells with column means for graph purposes only, Section II-C),
// run K-means on SI for the landmark matrix C, inject C into V, then iterate
// the multiplicative rules until convergence. Fit checks its inputs,
// projects them once to R_Ω(X), and runs that pipeline through FitSource.
func Fit(x *mat.Dense, omega *mat.Mask, l int, method Method, cfg Config) (*Model, error) {
	src, err := newDenseSource(x, omega, cfg.Weights)
	if err != nil {
		return nil, err
	}
	return FitSource(src, l, method, cfg)
}

// landmarksFor generates the landmark matrix C (SMFL only; nil otherwise),
// preferring the landmark index's K-means coreset when one is available.
func landmarksFor(si *mat.Dense, ix *landmark.Index, method Method, cfg Config) (*mat.Dense, error) {
	if method != SMFL {
		return nil, nil
	}
	if ix != nil && cfg.LandmarkSource == KMeansCenters {
		return ix.KCenters(cfg.K, cfg.KMeansMaxIter, cfg.Seed)
	}
	return generateLandmarks(si, cfg)
}

// buildSpatial constructs the p-NN graph over si behind the SpatialIndex
// seam. Exact mode delegates to spatial.BuildGraph's KD-tree backend;
// landmark mode builds the sub-quadratic landmark-bucket index and derives
// the graph from it. The returned index is nil in exact mode; callers use it
// to reuse the landmark selection for C and to attach a Placer to the fitted
// model.
func buildSpatial(si *mat.Dense, method Method, cfg Config) (*spatial.Graph, *landmark.Index, error) {
	switch cfg.SpatialIndex {
	case SpatialExact:
		g, err := spatial.BuildGraph(si, cfg.P, spatial.KDTreeMode)
		return g, nil, err
	case SpatialLandmark:
		lcfg := landmark.Config{Seed: cfg.Seed}
		if method == SMFL && cfg.LandmarkSource == KMeansCenters {
			// The coreset K-means that derives C needs at least K landmarks.
			lcfg.MinLandmarks = cfg.K
		}
		ix, err := landmark.Build(si, lcfg)
		if err != nil {
			return nil, nil, err
		}
		g, err := ix.PNNGraph(cfg.P)
		if err != nil {
			return nil, nil, err
		}
		return g, ix, nil
	}
	return nil, nil, fmt.Errorf("core: unknown spatial index %d", cfg.SpatialIndex)
}

// runFit dispatches to the configured updater: the full-sweep updaters run
// on the resident pair of a denseSource (callers refuse other sources via
// sweepable), the stochastic ones on any source. On interruption,
// divergence exhaustion, or an injected fault it returns the best-so-far
// model (tagged Partial) together with the classified error, so a cancelled
// run never vanishes. A successful fit run under the landmark index also
// captures the O(L) Placer from the trained coefficients.
func runFit(model *Model, tr *trainer, src DataSource, graph *spatial.Graph, ix *landmark.Index) (*Model, error) {
	var err error
	switch model.Config.Updater {
	case Multiplicative:
		d := src.(*denseSource)
		err = runMultiplicative(model, d.rx, d.omega, graph, tr)
	case GradientDescent:
		d := src.(*denseSource)
		err = runGradientDescent(model, d.rx, d.omega, graph, tr)
	case SGD, SVRG:
		err = runStochastic(model, src, graph, tr)
	default:
		return nil, fmt.Errorf("core: unknown updater %d", model.Config.Updater)
	}
	if err != nil {
		return model, err
	}
	if ix != nil {
		// The placer keeps the landmark coordinates and their rows of U, so
		// the serving fallback can answer new rows from their nearest
		// landmarks.
		if model.Placer, err = ix.NewPlacer(model.U); err != nil {
			return model, err
		}
	}
	return model, nil
}

// siFilled copies the SI block and replaces hidden cells with column means,
// used only for D construction and K-means (the values themselves are still
// imputed by the factorization, per Section II-C). It streams the source
// once; per-column sums accumulate in ascending row order, so every backend
// holding the same data yields a bit-identical block.
func siFilled(src mat.RowSource, l int) *mat.Dense {
	n, _ := src.Dims()
	si := mat.NewDense(n, l)
	sums := make([]float64, l)
	cnts := make([]int, l)
	observed := make([]bool, n*l)
	rd := src.Reader()
	for i := 0; i < n; i++ {
		xi, cols := rd.Row(i)
		copy(si.Row(i), xi[:l])
		for _, j := range cols {
			if int(j) >= l {
				break // cols is sorted; the SI prefix is done
			}
			observed[i*l+int(j)] = true
			sums[j] += xi[j]
			cnts[j]++
		}
	}
	rd.Release()
	for j := 0; j < l; j++ {
		mean := 0.0
		if cnts[j] > 0 {
			mean = sums[j] / float64(cnts[j])
		}
		for i := 0; i < n; i++ {
			if !observed[i*l+j] {
				si.Set(i, j, mean)
			}
		}
	}
	return si
}

// initFactors fills U and V with standard uniform positives — the paper's
// "randomly initialized" starting point for the multiplicative updates.
func initFactors(model *Model, n, m int) {
	cfg := model.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	model.U = mat.RandomUniform(rng, n, cfg.K, 1e-3, 1)
	model.V = mat.RandomUniform(rng, cfg.K, m, 1e-3, 1)
}

// runMultiplicative iterates Formulas 13/14.
func runMultiplicative(model *Model, rx *mat.Dense, omega *mat.Mask, graph *spatial.Graph, tr *trainer) error {
	cfg := model.Config
	u, v := model.U, model.V
	n, m := rx.Dims()
	k := cfg.K
	lam := cfg.Lambda
	reg := graph != nil && lam > 0

	// Confidence weighting (extension): the sweep folds W into R_Ω(X) once
	// and into R_Ω(UV) each pass; with W = 1 this is a no-op.
	sw := omega.NewSweep(rx, cfg.Weights, k)
	du := mat.NewDense(n, k)

	// Hoisted out of the iteration loop: the factor backing slices are
	// stable, so one fetch serves every element update.
	ud, vd, dud := u.Data(), v.Data(), du.Data()
	eps := cfg.Eps

	before := func() {
		if reg {
			graph.MulD(du, u)
		}
	}
	// U ⊙ (R_Ω(X)Vᵀ + λDU) ⊘ (R_Ω(UV)Vᵀ + λWU), with (WU)_i = deg_i·u_i.
	updateU := func(i int, num, den []float64) {
		ui := ud[i*k : (i+1)*k]
		if !reg {
			for t := range ui {
				ui[t] *= num[t] / (den[t] + eps)
			}
			return
		}
		di := dud[i*k : (i+1)*k]
		deg := graph.Degree(i)
		for t := range ui {
			ui[t] *= (num[t] + lam*di[t]) / (den[t] + lam*(deg*ui[t]) + eps)
		}
	}
	// V ⊙ (UᵀR_Ω(X)) ⊘ (UᵀR_Ω(UV)), landmark columns fixed.
	updateV := func(j int, num, den []float64) {
		for t := range num {
			vd[t*m+j] *= num[t] / (den[t] + eps)
		}
	}
	return runSweeps(model, sw, graph, tr, before, updateU, updateV)
}

// runGradientDescent iterates the plain projected gradient scheme of
// Section III-B1 (used by the SMF-GD ablation). The trainer's stepScale
// shrinks the learning rate on every rollback, so a diverging rate
// self-heals instead of blowing up to Inf (Zhao et al. observe such
// divergence is expected behavior for stochastic MF, arXiv:1705.06884).
func runGradientDescent(model *Model, rx *mat.Dense, omega *mat.Mask, graph *spatial.Graph, tr *trainer) error {
	cfg := model.Config
	u, v := model.U, model.V
	n, m := rx.Dims()
	k := cfg.K
	lam := cfg.Lambda
	reg := graph != nil && lam > 0

	sw := omega.NewSweep(rx, nil, k)
	lu := mat.NewDense(n, k)
	ud, vd, lud := u.Data(), v.Data(), lu.Data()
	var lr float64

	before := func() {
		lr = cfg.LearningRate * tr.stepScale
		if reg {
			graph.MulL(lu, u)
		}
	}
	// ∂O/∂U = −2 R_Ω(X)Vᵀ + 2 R_Ω(UV)Vᵀ + 2λLU, projected onto U ≥ 0.
	updateU := func(i int, num, den []float64) {
		ui := ud[i*k : (i+1)*k]
		li := lud[i*k : (i+1)*k]
		for t := range ui {
			g := den[t] - num[t]
			if reg {
				g += lam * li[t]
			}
			ui[t] += -2 * lr * g
			if ui[t] < 0 {
				ui[t] = 0
			}
		}
	}
	// ∂O/∂V = −2 UᵀR_Ω(X) + 2 UᵀR_Ω(UV); landmark columns frozen.
	updateV := func(j int, num, den []float64) {
		for t := range num {
			at := t*m + j
			vd[at] -= 2 * lr * (den[t] - num[t])
			if vd[at] < 0 {
				vd[at] = 0
			}
		}
	}
	return runSweeps(model, sw, graph, tr, before, updateU, updateV)
}

// runSweeps is the iteration loop of both full-sweep updaters. Each
// iteration runs before (the graph product on the old U), the U pass, the V
// pass, and the objective pass, which caches R_Ω(UV) for the next U pass.
// The trainer threads in the fault-tolerance concerns: cancellation at
// iteration boundaries, the divergence watchdog (a failed health check
// restores the last good factors, perturbs the dynamics, and retries the
// same iteration), and periodic atomic checkpoints. When resuming,
// model.Iters/Objective carry the restored position and the loop continues
// from there.
func runSweeps(model *Model, sw *mat.Sweep, graph *spatial.Graph, tr *trainer,
	before func(), updateU, updateV func(int, []float64, []float64)) error {
	cfg := model.Config
	u, v := model.U, model.V
	startCol := model.startCol() // landmark columns are frozen

	stale := true // the sweep holds no R_Ω(UV) of (U, V) yet
	it := model.Iters
	for it < cfg.MaxIter {
		if err := tr.interrupted(model); err != nil {
			return err
		}
		if err := tr.fireIterFault(model, it); err != nil {
			return err
		}
		// A FitIter hook may have rewritten U or V in place.
		if stale || faultinject.Enabled() {
			sw.Objective(u, v)
		}

		before()
		sw.UPass(u, v, updateU)
		sw.VPass(u, v, startCol, updateV)
		obj := sw.Objective(u, v)
		stale = false
		if graph != nil && cfg.Lambda > 0 {
			obj += cfg.Lambda * graph.QuadForm(u)
		}

		// ---- divergence watchdog: roll back and retry this iteration ----
		if ok, reason := tr.healthy(obj, u, v); !ok {
			if err := tr.recover(model, it, reason); err != nil {
				return err
			}
			stale = true
			continue
		}

		prevObj := lastObj(model)
		model.Objective = append(model.Objective, obj)
		model.Iters = it + 1
		tr.commit(model, obj)
		if !math.IsInf(prevObj, 1) && math.Abs(prevObj-obj) <= cfg.Tol*math.Max(prevObj, 1e-12) {
			model.Converged = true
		}
		it++
		if err := tr.maybeCheckpoint(model, model.Converged || it == cfg.MaxIter); err != nil {
			model.Partial = true
			return err
		}
		if model.Converged {
			break
		}
	}
	return nil
}
