package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// foldBasis is the model-invariant part of every fold-in: the column-major
// Vᵀ, the mean U row, and the training rows' SI as the model reconstructs
// it, Û_SI = U·V[:, :L], indexed for p-NN search together with its column
// means. It depends only on U, V and L, so a Model derives it once (see
// Model.basis) instead of once per call.
type foldBasis struct {
	u, v *mat.Dense // the factors it was derived from
	l    int
	vt   []float64 // M×K row-major: Vᵀ, contiguous per column of V
	// uMean is the mean row of U, nil when U has no rows (or does not match
	// V, which only a hand-built model can do).
	uMean []float64
	// tree indexes the rows of Û_SI and siMean holds its column means; both
	// are nil when L = 0 or uMean is nil.
	tree   *spatial.KDTree
	siMean []float64
	// scratch pools per-chunk *foldScratch, so a fold-in's per-row
	// workspace is not reallocated on every call.
	scratch sync.Pool
}

// foldScratch is one chunk's workspace for foldRow.
type foldScratch struct {
	knn     spatial.KNNScratch
	g, chol []float64 // K×K
	b, z    []float64 // K
	q       []float64 // L: the row's SI with hidden cells filled
	set     []int     // the active-set solver's passive indices
	passive []bool    // K
}

// basis returns the model's fold-in basis, deriving it on first use. A
// basis built for a different U or V matrix or SI width is never served:
// replacing m.U or m.V or changing m.L rebuilds it. Mutating the factors'
// entries in place after a fold-in is not detected, which is why they are
// immutable once a model has served one (see Model). Concurrent first uses
// may each build a basis; they are identical, and the last store wins.
func (m *Model) basis() *foldBasis {
	if b := m.fold.Load(); b != nil && b.u == m.U && b.v == m.V && b.l == m.L {
		return b
	}
	k, _ := m.V.Dims()
	l := m.L
	b := &foldBasis{u: m.U, v: m.V, l: l, vt: m.V.T().Data()}
	b.scratch.New = func() any {
		return &foldScratch{
			g: make([]float64, k*k), chol: make([]float64, k*k),
			b: make([]float64, k), z: make([]float64, k), q: make([]float64, l),
			set: make([]int, 0, k), passive: make([]bool, k),
		}
	}
	if m.U != nil && m.U.Rows() > 0 && m.U.Cols() == k {
		n := m.U.Rows()
		b.uMean = make([]float64, k)
		for i := 0; i < n; i++ {
			for t, v := range m.U.Row(i) {
				b.uMean[t] += v
			}
		}
		for t := range b.uMean {
			b.uMean[t] /= float64(n)
		}
		if l > 0 {
			siHat := mat.Mul(nil, m.U, m.V.Slice(0, k, 0, l))
			pts := make([][]float64, n)
			b.siMean = make([]float64, l)
			for i := range pts {
				pts[i] = siHat.Row(i)
				for j, v := range pts[i] {
					b.siMean[j] += v
				}
			}
			for j := range b.siMean {
				b.siMean[j] /= float64(n)
			}
			b.tree = spatial.NewKDTree(pts)
		}
	}
	m.fold.Store(b)
	return b
}

// MeanCoefficients returns the mean row of U, or nil when the model has no
// coefficient rows. It derives the model's fold-in basis on first use, so
// a server that calls it while loading a model keeps the basis build (a
// KD-tree over the training rows) off its first request. The slice is
// shared and must not be modified.
func (m *Model) MeanCoefficients() []float64 { return m.basis().uMean }

// FoldIn computes coefficient rows for out-of-sample tuples against the
// fitted model, without refitting it — the streaming complement to Fit for
// deployments where new sensor rows arrive after training. Each new row x
// gets the exact minimizer, over u ≥ 0, of the paper's objective restricted
// to that row with U and V held fixed:
//
//	‖R_Ω(x − uV)‖² + λ · Σ_{j ∈ N} ‖u − u_j‖²
//
// The second term is the new row's share of the graph term of Formula 13:
// by Formula 3 a row with SI has edges to its p nearest training rows N.
// Neighbours are found in the model's own SI space Û_SI = U·V[:, :L]; a
// hidden SI cell of x takes the column mean of Û_SI, as the training graph
// fills hidden SI with column means. With L = 0 every training row is
// equally near, and the term anchors u at the mean U row with weight λp. λ
// and p are Config.Lambda and Config.P as the model carries them. The
// problem is a K×K nonnegative quadratic program, solved exactly by an
// active-set method, so the answer has no iteration cap or tolerance: iters
// is ignored and kept only for source compatibility.
//
// rows is R×M in the same normalized units as the training matrix; omega
// marks its observed entries (nil = fully observed). It returns the R×K
// coefficient block. Rows are solved independently of each other, so a row
// gets the same bits alone as inside any batch. Config.Ctx, when set,
// cancels the batch at a row boundary, returning the block with the rows
// solved so far (the rest zero) and an error wrapping ErrInterrupted.
//
// FoldIn only reads the receiver (U, V, Config, the cached fold-in basis)
// and allocates all other scratch locally, so concurrent calls against one
// Model are safe — audited together with internal/mat, whose operations
// share no package-level mutable state and only fan goroutines out over
// disjoint destination rows. The serving layer's micro-batcher
// (internal/serve) depends on this.
func (m *Model) FoldIn(rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	return m.foldIn(m.Config.Ctx, rows, omega)
}

// FoldInCtx is FoldIn under an explicit context: ctx, when non-nil,
// overrides Config.Ctx for this call only, cancelling the batch at a row
// boundary with an error wrapping ErrInterrupted. The receiver is not
// mutated, so concurrent FoldInCtx calls against one shared Model — the
// serving tier's per-batch deadlines — remain safe. iters is ignored, as
// in FoldIn.
func (m *Model) FoldInCtx(ctx context.Context, rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	if ctx == nil {
		ctx = m.Config.Ctx
	}
	return m.foldIn(ctx, rows, omega)
}

// foldIn is FoldIn under ctx (nil = not cancellable).
func (m *Model) foldIn(ctx context.Context, rows *mat.Dense, omega *mat.Mask) (*mat.Dense, error) {
	r, cols := rows.Dims()
	k, vm := m.V.Dims()
	if cols != vm {
		return nil, fmt.Errorf("core: FoldIn rows have %d columns, model has %d", cols, vm)
	}
	if r == 0 {
		return nil, errors.New("core: FoldIn needs at least one row")
	}
	if m.L < 0 || m.L > cols {
		return nil, fmt.Errorf("core: FoldIn model SI width %d outside [0, %d]", m.L, cols)
	}
	if omega != nil {
		if or, oc := omega.Dims(); or != r || oc != cols {
			return nil, errors.New("core: FoldIn mask shape mismatch")
		}
	}
	for i := 0; i < r; i++ {
		for j, x := range rows.Row(i) {
			if omega != nil && !omega.Observed(i, j) {
				continue
			}
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return nil, errors.New("core: FoldIn rows must be finite and nonnegative over Ω")
			}
		}
	}
	b := m.basis()
	lambda, p := m.Config.Lambda, m.Config.P
	u := mat.NewDense(r, k)
	var stopped atomic.Bool
	mat.ParallelChunks(r, mat.ChunksFor(r, r*(cols+k)*k*k), func(_, lo, hi int) {
		s := b.scratch.Get().(*foldScratch)
		defer b.scratch.Put(s)
		for i := lo; i < hi; i++ {
			if ctx != nil && ctx.Err() != nil {
				stopped.Store(true)
				return
			}
			b.foldRow(s, u.Row(i), rows.Row(i), omega, i, lambda, p)
		}
	})
	if stopped.Load() {
		return u, fmt.Errorf("%w during fold-in: %w", ErrInterrupted, ctx.Err())
	}
	return u, nil
}

// foldRow writes into u row i's fold-in: it builds the row's quadratic
// program, min ½uᵀGu − bᵀu over u ≥ 0 with
//
//	G = V_Ω V_Ωᵀ + λ|N|·I,   b = V_Ω x_Ω + λ Σ_{j ∈ N} u_j,
//
// and solves it with nnqp.
func (b *foldBasis) foldRow(s *foldScratch, u, x []float64, omega *mat.Mask, i int, lambda float64, p int) {
	k := len(u)
	g, rhs := s.g, s.b
	clear(g)
	clear(rhs)
	for j, xj := range x {
		if omega != nil && !omega.Observed(i, j) {
			continue
		}
		vtj := b.vt[j*k : (j+1)*k]
		for t, vt := range vtj {
			rhs[t] += xj * vt
			gt := g[t*k : t*k+t+1] // lower triangle; mirrored below
			for c := range gt {
				gt[c] += vt * vtj[c]
			}
		}
	}
	for t := 0; t < k; t++ {
		for c := 0; c < t; c++ {
			g[c*k+t] = g[t*k+c]
		}
	}
	if lambda > 0 && p > 0 && b.uMean != nil {
		weight := lambda * float64(p)
		if b.tree == nil {
			for t, v := range b.uMean {
				rhs[t] += weight * v
			}
		} else {
			for j := range s.q {
				if omega == nil || omega.Observed(i, j) {
					s.q[j] = x[j]
				} else {
					s.q[j] = b.siMean[j]
				}
			}
			nbrs := b.tree.KNNInto(&s.knn, s.q, p, -1)
			weight = lambda * float64(len(nbrs))
			for _, n := range nbrs {
				for t, v := range b.u.Row(n) {
					rhs[t] += lambda * v
				}
			}
		}
		for t := 0; t < k; t++ {
			g[t*k+t] += weight
		}
	}
	nnqp(s, u, g, rhs)
}

// nnqp writes into u the minimizer of ½uᵀGu − bᵀu subject to u ≥ 0, for a
// symmetric positive semidefinite K×K G (row-major), by the Lawson–Hanson
// active-set method in Gram form. The passive set P holds the coordinates
// free to be positive; each outer step admits the coordinate with the
// largest negative gradient w = b − Gu, and the inner loop solves
// G_PP z = b_P and steps back to the feasible boundary while z has
// nonpositive entries. It stops when no coordinate outside P has w above
// rounding level, which is the KKT condition of the problem, so no
// tolerance is tuned: the threshold is a few ulps of the data's scale.
func nnqp(s *foldScratch, u, g, b []float64) {
	k := len(u)
	clear(u)
	passive := s.passive
	clear(passive)
	set := s.set[:0]
	var scale float64
	for t := 0; t < k; t++ {
		scale = math.Max(scale, math.Max(g[t*k+t], math.Abs(b[t])))
	}
	const ulp = 0x1p-52
	tol := 16 * float64(k) * ulp * scale
	// Each admission strictly lowers the objective, so in exact arithmetic
	// no passive set repeats and the loop ends; the bound on admissions
	// only stops rounding from cycling on a degenerate G.
	for admitted := 0; admitted < 4*k; admitted++ {
		best, in := tol, -1
		for t := 0; t < k; t++ {
			if passive[t] {
				continue
			}
			w := b[t]
			for c, v := range g[t*k : (t+1)*k] {
				w -= v * u[c]
			}
			if w > best {
				best, in = w, t
			}
		}
		if in < 0 {
			return
		}
		passive[in] = true
		set = append(set, in)
		for first := true; ; first = false {
			z := s.z[:len(set)]
			if !cholSolve(s.chol, g, b, set, z) || (first && z[len(set)-1] <= 0) {
				// Only the admitting step can get here (a principal
				// submatrix of a factorizable G_PP factorizes too): the
				// admitted coordinate is dependent on P at working
				// precision, so its gradient was rounding and u is optimal.
				return
			}
			alpha, out := 1.0, -1
			for pi, t := range set {
				if z[pi] <= 0 {
					if a := u[t] / (u[t] - z[pi]); a < alpha {
						alpha, out = a, t
					}
				}
			}
			if out < 0 {
				for pi, t := range set {
					u[t] = z[pi]
				}
				break
			}
			keep := set[:0]
			for pi, t := range set {
				u[t] += alpha * (z[pi] - u[t])
				if t == out || u[t] <= 0 {
					u[t] = 0
					passive[t] = false
					continue
				}
				keep = append(keep, t)
			}
			set = keep
		}
	}
}

// cholSolve solves G_PP z = b_P for the passive coordinates set, factoring
// G_PP into l (Cholesky, row-major |P|×|P|). It reports false when a pivot
// falls to rounding level relative to its diagonal entry, i.e. when G_PP is
// singular at working precision. Unlike linalg.Cholesky it works in the
// chunk's scratch, so solving a row allocates nothing.
func cholSolve(l, g, b []float64, set []int, z []float64) bool {
	n, k := len(set), len(b)
	const ulp = 0x1p-52
	for a := 0; a < n; a++ {
		ga := g[set[a]*k : (set[a]+1)*k]
		for c := 0; c <= a; c++ {
			v := ga[set[c]]
			for e := 0; e < c; e++ {
				v -= l[a*n+e] * l[c*n+e]
			}
			if c == a {
				if !(v > 16*float64(n)*ulp*ga[set[a]]) {
					return false
				}
				l[a*n+a] = math.Sqrt(v)
			} else {
				l[a*n+c] = v / l[c*n+c]
			}
		}
	}
	for a := 0; a < n; a++ {
		v := b[set[a]]
		for e := 0; e < a; e++ {
			v -= l[a*n+e] * z[e]
		}
		z[a] = v / l[a*n+a]
	}
	for a := n - 1; a >= 0; a-- {
		v := z[a]
		for e := a + 1; e < n; e++ {
			v -= l[e*n+a] * z[e]
		}
		z[a] = v / l[a*n+a]
	}
	return true
}

// CompleteRows imputes out-of-sample rows with the fitted model: hidden
// cells take the fold-in reconstruction, observed cells are kept. iters is
// ignored, as in FoldIn.
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
