package core

import (
	"math"

	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// runStochastic iterates the sampled-cell updater family: plain mini-batch
// SGD and the variance-reduced SVRG variant (after "A Unified Framework for
// Stochastic Matrix Factorization via Variance Reduction"). One trainer
// iteration is one epoch: the sampler reshuffles the rows and cuts them into
// blocks of about Config.BatchCells observed cells, and every batch applies
// one fused projected step — exact U-gradients for its rows (row blocks
// carry each sampled row's full Ω_i) and a stochastic V-direction. The
// spatial pull λ·L·U and the objective/convergence/watchdog/checkpoint
// machinery run once per epoch, not per batch, so the per-epoch overhead
// matches one full-sweep GD iteration while V sees |Ω|/BatchCells updates.
//
// Determinism and resume: the sampler's epoch layout is a pure function of
// its uint64 state, per-batch V-partials combine in worker-chunk order, and
// the committed state (sampler position, SVRG anchor + full gradient, anchor
// age) travels in the checkpoint envelope — so fits are reproducible for a
// fixed pool size and ResumeFit replays the uninterrupted trajectory
// bit-for-bit. A watchdog rollback rewinds the sampler and anchor age to the
// epoch's entry state, halves the learning rate (trainer.recover), and
// retries the same epoch.
//
// Storage: the loop reads X and Ω only through the mat.RowSource seam, so it
// runs unchanged over Fit's resident pair (denseSource) and the out-of-core
// shard store (internal/store). U, V, and the SVRG anchor stay resident —
// they are O((N+M)·K), two orders below the O(N·M) data at the benchmark
// shapes, and the watchdog/checkpoint machinery snapshots them wholesale —
// while the O(N·M) row data streams through bounded shard pins.
//
// SVRG stores only the anchor factors and the anchor's K×M full V-gradient.
// The usual N×K anchor U-gradient correction is omitted because it cancels
// exactly: with row-block batches, a batch's U-gradient at the anchor for a
// sampled row is that row's full anchor U-gradient, so the correction
// −∇̃_B + w·∇̃_Ω contributes nothing row-wise (the batch term and the
// row-restricted full term coincide). Only the V-direction needs variance
// reduction.
func runStochastic(model *Model, src mat.RowSource, graph *spatial.Graph, tr *trainer) error {
	cfg := model.Config
	u, v := model.U, model.V
	n, m := src.Dims()
	k := cfg.K
	lam := cfg.Lambda
	startCol := model.startCol()
	svrg := cfg.Updater == SVRG

	sampler := mat.NewBatchSamplerSource(src, cfg.BatchCells, tr.sample)
	scratch := mat.NewBatchScratch()
	gv := mat.NewDense(k, m)
	var lu *mat.Dense
	if graph != nil && lam > 0 {
		lu = mat.NewDense(n, k)
	}
	total := float64(src.NumObserved())

	it := model.Iters
	for it < cfg.MaxIter {
		if err := tr.interrupted(model); err != nil {
			return err
		}
		if err := tr.fireIterFault(model, it); err != nil {
			return err
		}
		lr := cfg.LearningRate * tr.stepScale

		// Epoch-entry snapshot for the watchdog's rollback path. The factors
		// themselves are covered by the trainer's goodU/goodV; the sampler
		// position and anchor age are ours to rewind. Anchor content needs no
		// snapshot: a refresh below happens before any factor update, so on a
		// retry the restored factors regenerate the identical anchor.
		preSample := sampler.State()
		preAge := tr.anchorAge

		if svrg && (tr.anchorU == nil || tr.anchorAge >= cfg.AnchorEvery) {
			if tr.anchorU == nil {
				tr.anchorU = u.Clone()
				tr.anchorV = v.Clone()
				tr.gradV = mat.NewDense(k, m)
			} else {
				tr.anchorU.CopyFrom(u)
				tr.anchorV.CopyFrom(v)
			}
			mat.VGradObserved(src, tr.gradV, tr.anchorU, tr.anchorV, startCol, scratch)
			tr.anchorAge = 0
		}

		// Spatial pull (SMF/SMFL): one projected step on the λ·Tr(UᵀLU) term
		// per epoch — evaluating the graph per batch would multiply its
		// traversal cost by the batch count for no sampling benefit.
		if lu != nil {
			graph.MulL(lu, u)
			mat.AddScaled(u, u, -2*lr*lam, lu)
			u.ClampMin(0)
		}

		sampler.Reshuffle()
		for b, nb := 0, sampler.NumBatches(); b < nb; b++ {
			rows := sampler.Batch(b)
			if svrg {
				mat.StochasticStep(src, gv, u, v, rows, lr, startCol, tr.anchorU, tr.anchorV, scratch)
				w := 0.0
				if total > 0 {
					w = float64(sampler.BatchCells(b)) / total
				}
				applyVStep(v, gv, tr.gradV, w, lr, startCol)
			} else {
				mat.StochasticStep(src, gv, u, v, rows, lr, startCol, nil, nil, scratch)
				applyVStep(v, gv, nil, 0, lr, startCol)
			}
		}

		// Fused epoch objective, identical to the full-sweep updaters.
		obj := mat.MaskedFrob2MulSource(src, u, v)
		if graph != nil && lam > 0 {
			obj += lam * graph.QuadForm(u)
		}

		if ok, reason := tr.healthy(obj, u, v); !ok {
			sampler.SetState(preSample)
			tr.anchorAge = preAge
			if err := tr.recover(model, it, reason); err != nil {
				return err
			}
			continue
		}

		prevObj := lastObj(model)
		model.Objective = append(model.Objective, obj)
		model.Iters = it + 1
		tr.sample = sampler.State()
		if svrg {
			tr.anchorAge++
		}
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

// applyVStep applies one projected V update from the batch direction gb,
// plus the w-weighted anchor full gradient agv when non-nil (SVRG):
//
//	v ← max(0, v + 2·lr·(gb + w·agv))   over columns ≥ startCol
//
// Columns below startCol (frozen landmarks) are untouched; gb is already
// zero there by construction.
func applyVStep(v, gb, agv *mat.Dense, w, lr float64, startCol int) {
	k, m := v.Dims()
	if m == startCol {
		return
	}
	vd, gd := v.Data(), gb.Data()
	var ad []float64
	if agv != nil {
		ad = agv.Data()
	}
	mat.ParallelRange(m-startCol, 2*k*(m-startCol), func(lo, hi int) {
		for r := 0; r < k; r++ {
			row := r * m
			for j := startCol + lo; j < startCol+hi; j++ {
				g := gd[row+j]
				if ad != nil {
					g += w * ad[row+j]
				}
				nv := vd[row+j] + 2*lr*g
				if nv < 0 {
					nv = 0
				}
				vd[row+j] = nv
			}
		}
	})
}
