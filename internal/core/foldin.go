package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// foldBasis is the model-invariant part of every fold-in: the shared start
// row and the column-major Vᵀ. It depends only on V, K and Seed, so a Model
// derives it once (see Model.basis) instead of once per call.
type foldBasis struct {
	v     *mat.Dense // the V it was derived from
	seed  int64
	start []float64 // K uniform draws in [1e-3, 1) from rand.NewSource(Seed+1)
	vt    []float64 // M×K row-major: Vᵀ, contiguous per column of V
}

// basis returns the model's fold-in basis, deriving it on first use. A
// basis built for a different V matrix, Seed or K is never served: replacing
// m.V or changing Config.Seed or Config.K rebuilds it. Mutating V's entries
// in place after a fold-in is not detected, which is why V is immutable
// once a model has served one (see Model). Concurrent first uses may each
// build a basis; they are identical, and the last store wins.
func (m *Model) basis() *foldBasis {
	k := m.Config.K
	if b := m.fold.Load(); b != nil && b.v == m.V && b.seed == m.Config.Seed && len(b.start) == k {
		return b
	}
	rng := rand.New(rand.NewSource(m.Config.Seed + 1))
	b := &foldBasis{
		v:     m.V,
		seed:  m.Config.Seed,
		start: mat.RandomUniform(rng, 1, k, 1e-3, 1).Row(0),
		vt:    m.V.T().Data(),
	}
	m.fold.Store(b)
	return b
}

// FoldIn computes coefficient rows for out-of-sample tuples against the
// fitted feature matrix V, without refitting the whole model — the streaming
// complement to Fit for deployments where new sensor rows arrive after
// training. Each new row's u is obtained by the masked multiplicative rule
// with V held fixed:
//
//	u ← u ⊙ (R_Ω(x)Vᵀ) ⊘ (R_Ω(uV)Vᵀ)
//
// which is Formula 13 restricted to the reconstruction term (a new row has
// no edges in the training graph, so the Laplacian terms vanish).
// rows is R×M in the same normalized units as the training matrix; omega
// marks its observed entries (nil = fully observed). It returns the R×K
// coefficient block. Rows freeze individually once their relative objective
// change drops below Config.FoldInTol; Config.Ctx, when set, cancels the
// batch at an iteration boundary, returning the coefficients computed so far
// with an error wrapping ErrInterrupted.
//
// FoldIn only reads the receiver (V, Config, the cached fold-in basis) and
// allocates all scratch locally, so concurrent calls against one Model are
// safe — audited together with internal/mat, whose operations share no
// package-level mutable state and only fan goroutines out over disjoint
// destination rows. The serving layer's micro-batcher (internal/serve)
// depends on this.
func (m *Model) FoldIn(rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	return m.foldIn(m.Config.Ctx, rows, omega, iters)
}

// FoldInCtx is FoldIn under an explicit context: ctx, when non-nil,
// overrides Config.Ctx for this call only, cancelling the batch at an
// iteration boundary with an error wrapping ErrInterrupted. The receiver is
// not mutated, so concurrent FoldInCtx calls against one shared Model — the
// serving tier's per-batch deadlines — remain safe.
func (m *Model) FoldInCtx(ctx context.Context, rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	if ctx == nil {
		ctx = m.Config.Ctx
	}
	return m.foldIn(ctx, rows, omega, iters)
}

// foldIn is FoldIn under ctx (nil = not cancellable).
func (m *Model) foldIn(ctx context.Context, rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	r, cols := rows.Dims()
	_, vm := m.V.Dims()
	if cols != vm {
		return nil, fmt.Errorf("core: FoldIn rows have %d columns, model has %d", cols, vm)
	}
	if r == 0 {
		return nil, errors.New("core: FoldIn needs at least one row")
	}
	if omega != nil {
		if or, oc := omega.Dims(); or != r || oc != cols {
			return nil, errors.New("core: FoldIn mask shape mismatch")
		}
	}
	// Each row's observed columns, ascending, listed once per call: the
	// sweep walks row i's list obs[ptr[i]:ptr[i+1]] instead of testing every
	// mask bit twice per iteration.
	obs := make([]int32, 0, r*cols)
	ptr := make([]int, r+1)
	for i := 0; i < r; i++ {
		ptr[i] = len(obs)
		for j, x := range rows.Row(i) {
			if omega != nil && !omega.Observed(i, j) {
				continue
			}
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return nil, errors.New("core: FoldIn rows must be finite and nonnegative over Ω")
			}
			obs = append(obs, int32(j))
		}
	}
	ptr[r] = len(obs)
	if iters <= 0 {
		iters = 100
	}
	k := m.Config.K
	basis := m.basis()
	// Every row starts from the same K uniform draws, so a row's start (and
	// hence its whole trajectory) does not depend on its position in the
	// batch: a coalesced fold-in answers each row exactly as a stand-alone
	// call would.
	u := mat.NewDense(r, k)
	for i := 0; i < r; i++ {
		copy(u.Row(i), basis.start)
	}
	// Landmark warm start: rows whose SI cells are all observed are placed
	// against the O(L) landmark model and start from a Shepard blend of their
	// nearest landmarks' trained coefficients instead of the shared random
	// start. The blend is deterministic and per-row, so single-row and
	// batched fold-ins still agree.
	if p := m.WarmStartPlacer(); p != nil {
		for i := 0; i < r; i++ {
			// Columns are listed ascending, so the SI cells are all observed
			// exactly when the row's first L entries are 0..L-1.
			if ptr[i+1]-ptr[i] >= m.L && obs[ptr[i]+m.L-1] == int32(m.L-1) {
				p.WarmStart(u.Row(i), rows.Row(i)[:m.L])
			}
		}
	}
	eps := m.Config.Eps
	if eps == 0 { //lint:ignore floatcmp zero config value means unset
		eps = 1e-12
	}
	tol := m.Config.FoldInTol
	if tol <= 0 {
		tol = 1e-8 // pre-v3 models carry no FoldInTol; keep the historical value
	}

	// Each row's trajectory is independent of the rest of the batch: the
	// start is shared, the update touches only u_i and the convergence test
	// is per-row, so a row that has converged freezes while the stragglers
	// keep iterating (and a single-row FoldIn reproduces any row of a batched
	// call exactly). The masked update and objective are fused — only
	// observed dot products against Vᵀ are evaluated, never the dense u·V
	// product.
	vtd := basis.vt
	active := make([]bool, r)
	prev := make([]float64, r)
	for i := range active {
		active[i] = true
		prev[i] = math.Inf(1)
	}
	// The sweep closure and its per-chunk num/den scratch are built once per
	// call, sized for the widest split any iteration can take (the chunk
	// count only falls as rows converge), so the iteration loop allocates
	// nothing.
	scratch := make([]float64, 2*k*mat.ChunksFor(r, 3*r*cols*k))
	sweep := func(ci, lo, hi int) {
		num := scratch[2*k*ci : 2*k*ci+k]
		den := scratch[2*k*ci+k : 2*k*(ci+1)]
		for i := lo; i < hi; i++ {
			if !active[i] {
				continue
			}
			ui := u.Row(i)
			xi := rows.Row(i)
			oi := obs[ptr[i]:ptr[i+1]]
			for t := 0; t < k; t++ {
				num[t], den[t] = 0, 0
			}
			for _, j := range oi {
				vtj := vtd[int(j)*k : int(j+1)*k]
				// Open-coded dot (same accumulation order as mat.DotVec,
				// which the compiler does not inline): p = (uV)_ij.
				var p0, p1, p2, p3 float64
				t := 0
				for ; t+4 <= k; t += 4 {
					p0 += ui[t] * vtj[t]
					p1 += ui[t+1] * vtj[t+1]
					p2 += ui[t+2] * vtj[t+2]
					p3 += ui[t+3] * vtj[t+3]
				}
				p := (p0 + p2) + (p1 + p3)
				for ; t < k; t++ {
					p += ui[t] * vtj[t]
				}
				xv := xi[j]
				for t, vv := range vtj {
					num[t] += xv * vv
					den[t] += p * vv
				}
			}
			for t, uval := range ui {
				ui[t] = uval * num[t] / (den[t] + eps)
			}
			var obj float64
			for _, j := range oi {
				vtj := vtd[int(j)*k : int(j+1)*k]
				var p0, p1, p2, p3 float64
				t := 0
				for ; t+4 <= k; t += 4 {
					p0 += ui[t] * vtj[t]
					p1 += ui[t+1] * vtj[t+1]
					p2 += ui[t+2] * vtj[t+2]
					p3 += ui[t+3] * vtj[t+3]
				}
				p := (p0 + p2) + (p1 + p3)
				for ; t < k; t++ {
					p += ui[t] * vtj[t]
				}
				d := xi[j] - p
				obj += d * d
			}
			if !math.IsInf(prev[i], 1) && math.Abs(prev[i]-obj) <= tol*math.Max(prev[i], 1e-12) {
				active[i] = false
			}
			prev[i] = obj
		}
	}
	for it, remaining := 0, r; it < iters && remaining > 0; it++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return u, fmt.Errorf("%w after %d fold-in iterations: %w", ErrInterrupted, it, err)
			}
		}
		if faultinject.Enabled() {
			if err := faultinject.Fire(faultinject.FoldInIter, &FoldInFault{Iter: it, U: u}); err != nil {
				return u, fmt.Errorf("core: fold-in iteration %d: %w", it, err)
			}
		}
		mat.ParallelChunks(r, mat.ChunksFor(r, 3*remaining*cols*k), sweep)
		remaining = 0
		for _, a := range active {
			if a {
				remaining++
			}
		}
	}
	return u, nil
}

// CompleteRows imputes out-of-sample rows with the fitted model: hidden
// cells take the fold-in reconstruction, observed cells are kept.
func (m *Model) CompleteRows(rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	r, cols := rows.Dims()
	if omega == nil {
		omega = mat.FullMask(r, cols)
	}
	u, err := m.FoldIn(rows, omega, iters)
	if err != nil {
		return nil, err
	}
	return omega.RecoverInPlace(rows, mat.Mul(nil, u, m.V)), nil
}
