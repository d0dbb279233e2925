package mat

import (
	"fmt"
	"math/bits"
)

// DenseCutover is the observed-density threshold at which the fused masked
// kernels fall back to their dense counterparts. Below it, evaluating only
// the observed entries is cheaper; at or above it the dense ikj matmul wins
// through better streaming, despite computing entries that the mask
// immediately discards.
const DenseCutover = 0.85

// Density returns |Ω| / (rows·cols), the fraction of observed entries.
// An empty mask reports density 1.
func (m *Mask) Density() float64 {
	n := m.rows * m.cols
	if n == 0 {
		return 1
	}
	return float64(m.Count()) / float64(n)
}

// appendObservedCols appends the observed column indices of row i to js and
// returns the extended slice. It walks set bits with TrailingZeros64, so the
// cost is proportional to the words spanned plus the observed count, not to
// the row width.
func (m *Mask) appendObservedCols(js []int32, i int) []int32 {
	base := i * m.cols
	end := base + m.cols
	for wi := base >> 6; wi<<6 < end; wi++ {
		w := m.words[wi]
		if w == 0 {
			continue
		}
		off := wi << 6
		if off < base {
			w &= ^uint64(0) << uint(base-off)
		}
		if end-off < 64 {
			w &= 1<<uint(end-off) - 1
		}
		for w != 0 {
			js = append(js, int32(off+bits.TrailingZeros64(w)-base))
			w &= w - 1
		}
	}
	return js
}

// rowIdx returns the CSR index of Ω, building and caching it on first use.
// One build costs a single pass over the bitset; the fused kernels then read
// each row's observed-column list directly instead of re-scanning mask words
// every call. The build is goroutine-safe via double-checked locking: the
// fast path is a single atomic load, and concurrent first uses block on one
// builder rather than each redundantly scanning the bitset. Observe/Hide
// still invalidate by storing nil, so a mutation between uses triggers one
// fresh build.
func (m *Mask) rowIdx() *maskIndex {
	if ix := m.index.Load(); ix != nil {
		return ix
	}
	m.indexMu.Lock()
	defer m.indexMu.Unlock()
	if ix := m.index.Load(); ix != nil {
		return ix
	}
	ix := &maskIndex{
		indptr: make([]int, m.rows+1),
		idx:    make([]int32, 0, m.Count()),
	}
	for i := 0; i < m.rows; i++ {
		ix.indptr[i] = len(ix.idx)
		ix.idx = m.appendObservedCols(ix.idx, i)
	}
	ix.indptr[m.rows] = len(ix.idx)
	m.index.Store(ix)
	return ix
}

// ProjectMul stores R_Ω(u·v) into dst (allocated if nil) and returns dst,
// evaluating only the observed entries instead of materializing the full
// u·v. The inner kernel runs k-outer and 4-wide over the factor rows,
// gathering on the observed column list, so per-iteration cost scales with
// |Ω|·k. When the mask density reaches DenseCutover it switches to the dense
// Mul followed by an in-place projection. dst must not alias u or v.
func (m *Mask) ProjectMul(dst, u, v *Dense) *Dense {
	if u.rows != m.rows || v.cols != m.cols || u.cols != v.rows {
		panic(fmt.Sprintf("mat: ProjectMul %dx%d · %dx%d vs mask %dx%d",
			u.rows, u.cols, v.rows, v.cols, m.rows, m.cols))
	}
	if dst == nil {
		dst = NewDense(m.rows, m.cols)
	}
	if dst.rows != m.rows || dst.cols != m.cols {
		panic(dimErr("ProjectMul dst", dst, &Dense{rows: m.rows, cols: m.cols}))
	}
	if m.rows*m.cols == 0 {
		return dst
	}
	if m.Density() >= DenseCutover {
		Mul(dst, u, v)
		return m.Project(dst, dst)
	}
	k := u.cols
	cols := m.cols
	ix := m.rowIdx()
	ParallelRange(m.rows, len(ix.idx)*k, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			di := dst.data[i*cols : (i+1)*cols]
			clear(di)
			jsr := ix.idx[ix.indptr[i]:ix.indptr[i+1]]
			if len(jsr) == 0 {
				continue
			}
			ui := u.data[i*k : (i+1)*k]
			t := 0
			for ; t+4 <= k; t += 4 {
				a0, a1, a2, a3 := ui[t], ui[t+1], ui[t+2], ui[t+3]
				v0 := v.data[t*cols : (t+1)*cols]
				v1 := v.data[(t+1)*cols : (t+2)*cols]
				v2 := v.data[(t+2)*cols : (t+3)*cols]
				v3 := v.data[(t+3)*cols : (t+4)*cols]
				for _, j := range jsr {
					di[j] += a0*v0[j] + a1*v1[j] + a2*v2[j] + a3*v3[j]
				}
			}
			for ; t < k; t++ {
				av := ui[t]
				vt := v.data[t*cols : (t+1)*cols]
				for _, j := range jsr {
					di[j] += av * vt[j]
				}
			}
		}
	})
	return dst
}

// MulBTObserved stores R_Ω(a)·bᵀ into dst (allocated if nil) and returns
// dst, skipping the unobserved entries of a entirely. a is R×C and b is K×C,
// giving an R×K product. a must be supported on Ω (for example the output of
// ProjectMul or Project): off-Ω entries must be exact zeros, which makes the
// result equal MulBT(dst, a, b) while doing only |Ω|·K of its R·C·K
// multiply-adds. Near-full masks (density ≥ DenseCutover) delegate to the
// streaming MulBT, which beats the gathered walk there. dst must not alias a
// or b.
func (m *Mask) MulBTObserved(dst, a, b *Dense) *Dense {
	if a.rows != m.rows || a.cols != m.cols {
		panic(fmt.Sprintf("mat: MulBTObserved a %dx%d vs mask %dx%d", a.rows, a.cols, m.rows, m.cols))
	}
	if b.cols != m.cols {
		panic(dimErr("MulBTObserved", a, b))
	}
	if m.Density() >= DenseCutover {
		return MulBT(dst, a, b)
	}
	dst = mulDst(dst, a.rows, b.rows)
	k := b.rows
	cols := m.cols
	ix := m.rowIdx()
	ParallelRange(m.rows, len(ix.idx)*k, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			jsr := ix.idx[ix.indptr[i]:ix.indptr[i+1]]
			if len(jsr) == 0 {
				continue
			}
			ai := a.data[i*cols : (i+1)*cols]
			di := dst.data[i*k : (i+1)*k]
			t := 0
			for ; t+4 <= k; t += 4 {
				b0 := b.data[t*cols : (t+1)*cols]
				b1 := b.data[(t+1)*cols : (t+2)*cols]
				b2 := b.data[(t+2)*cols : (t+3)*cols]
				b3 := b.data[(t+3)*cols : (t+4)*cols]
				var s0, s1, s2, s3 float64
				for _, j := range jsr {
					av := ai[j]
					s0 += av * b0[j]
					s1 += av * b1[j]
					s2 += av * b2[j]
					s3 += av * b3[j]
				}
				di[t], di[t+1], di[t+2], di[t+3] = s0, s1, s2, s3
			}
			for ; t < k; t++ {
				bt := b.data[t*cols : (t+1)*cols]
				var s float64
				for _, j := range jsr {
					s += ai[j] * bt[j]
				}
				di[t] = s
			}
		}
	})
	return dst
}

// MaskedFrob2Mul returns ‖R_Ω(x − u·v)‖²_F without materializing u·v,
// fusing the reconstruction-error evaluation into one masked pass. The
// reduction is accumulated per worker chunk and combined in chunk order, so
// results are deterministic for a fixed pool size.
func (m *Mask) MaskedFrob2Mul(x, u, v *Dense) float64 {
	if x.rows != m.rows || x.cols != m.cols {
		panic(fmt.Sprintf("mat: MaskedFrob2Mul data %dx%d vs mask %dx%d", x.rows, x.cols, m.rows, m.cols))
	}
	return MaskedFrob2MulSource(NewDenseSource(x, m), u, v)
}

// MaskedFrob2MulSource is MaskedFrob2Mul over a RowSource. The chunk
// partition and per-chunk accumulation order match the dense path exactly
// (same row count, same |Ω|·K work estimate), so equal sources reduce to
// Float64bits-identical objectives.
func MaskedFrob2MulSource(src RowSource, u, v *Dense) float64 {
	n, cols := src.Dims()
	if u.rows != n || v.cols != cols || u.cols != v.rows {
		panic(fmt.Sprintf("mat: MaskedFrob2Mul %dx%d · %dx%d vs source %dx%d",
			u.rows, u.cols, v.rows, v.cols, n, cols))
	}
	if n == 0 || cols == 0 {
		return 0
	}
	k := u.cols
	return parallelReduce(n, src.NumObserved()*k, func(lo, hi int) float64 {
		rd := src.Reader()
		defer rd.Release()
		pred := make([]float64, cols)
		var s float64
		for i := lo; i < hi; i++ {
			xi, jsr := rd.Row(i)
			if len(jsr) == 0 {
				continue
			}
			ui := u.data[i*k : (i+1)*k]
			for _, j := range jsr {
				pred[j] = 0
			}
			t := 0
			for ; t+4 <= k; t += 4 {
				a0, a1, a2, a3 := ui[t], ui[t+1], ui[t+2], ui[t+3]
				v0 := v.data[t*cols : (t+1)*cols]
				v1 := v.data[(t+1)*cols : (t+2)*cols]
				v2 := v.data[(t+2)*cols : (t+3)*cols]
				v3 := v.data[(t+3)*cols : (t+4)*cols]
				for _, j := range jsr {
					pred[j] += a0*v0[j] + a1*v1[j] + a2*v2[j] + a3*v3[j]
				}
			}
			for ; t < k; t++ {
				av := ui[t]
				vt := v.data[t*cols : (t+1)*cols]
				for _, j := range jsr {
					pred[j] += av * vt[j]
				}
			}
			for _, j := range jsr {
				d := xi[j] - pred[j]
				s += d * d
			}
		}
		return s
	})
}

// MaskedWeightedFrob2Mul returns Σ_{(i,j)∈Ω} w_ij (x_ij − (u·v)_ij)², the
// fused weighted variant of MaskedFrob2Mul.
// The weighted objective is multiplicative-updater-only (never stochastic),
// so it stays on the resident mask path rather than the RowSource seam.
func (m *Mask) MaskedWeightedFrob2Mul(x, u, v, w *Dense) float64 {
	if w.rows != m.rows || w.cols != m.cols {
		panic(fmt.Sprintf("mat: MaskedWeightedFrob2Mul weights %dx%d vs mask %dx%d", w.rows, w.cols, m.rows, m.cols))
	}
	return m.maskedFrob2Mul(x, u, v, w)
}

func (m *Mask) maskedFrob2Mul(x, u, v, wts *Dense) float64 {
	if x.rows != m.rows || x.cols != m.cols || u.rows != m.rows || v.cols != m.cols || u.cols != v.rows {
		panic(fmt.Sprintf("mat: MaskedFrob2Mul %dx%d vs %dx%d · %dx%d vs mask %dx%d",
			x.rows, x.cols, u.rows, u.cols, v.rows, v.cols, m.rows, m.cols))
	}
	if m.rows*m.cols == 0 {
		return 0
	}
	k := u.cols
	cols := m.cols
	ix := m.rowIdx()
	return parallelReduce(m.rows, len(ix.idx)*k, func(lo, hi int) float64 {
		pred := make([]float64, cols)
		var s float64
		for i := lo; i < hi; i++ {
			jsr := ix.idx[ix.indptr[i]:ix.indptr[i+1]]
			if len(jsr) == 0 {
				continue
			}
			ui := u.data[i*k : (i+1)*k]
			for _, j := range jsr {
				pred[j] = 0
			}
			t := 0
			for ; t+4 <= k; t += 4 {
				a0, a1, a2, a3 := ui[t], ui[t+1], ui[t+2], ui[t+3]
				v0 := v.data[t*cols : (t+1)*cols]
				v1 := v.data[(t+1)*cols : (t+2)*cols]
				v2 := v.data[(t+2)*cols : (t+3)*cols]
				v3 := v.data[(t+3)*cols : (t+4)*cols]
				for _, j := range jsr {
					pred[j] += a0*v0[j] + a1*v1[j] + a2*v2[j] + a3*v3[j]
				}
			}
			for ; t < k; t++ {
				av := ui[t]
				vt := v.data[t*cols : (t+1)*cols]
				for _, j := range jsr {
					pred[j] += av * vt[j]
				}
			}
			xi := x.data[i*cols : (i+1)*cols]
			if wts != nil {
				wi := wts.data[i*cols : (i+1)*cols]
				for _, j := range jsr {
					d := xi[j] - pred[j]
					s += wi[j] * d * d
				}
			} else {
				for _, j := range jsr {
					d := xi[j] - pred[j]
					s += d * d
				}
			}
		}
		return s
	})
}

// Sweep holds what the three row passes of one full-sweep iteration share:
// the cached R_Ω(UV) and the V pass's column-major scratch, allocated once
// per fit. An iteration runs UPass, VPass, then Objective. Objective leaves
// R_Ω(UV) of the factors it scored in the cache, and the next UPass reads it
// instead of recomputing the product; a caller that changes U or V between
// an Objective and the next UPass (a rollback, a fault hook, a resume) must
// call Objective again first.
//
// Every pass keeps the partition and the accumulation order of the
// stand-alone kernels it replaces (MaskedFrob2Mul, MulBTObserved, and
// MulAT over Ω-supported operands), so below DenseCutover an iteration is
// Float64bits-identical to composing them. At or above the cutover the
// stand-alone MulBTObserved delegates to MulBT's split accumulators, while
// UPass sums sequentially: the two differ in the last bits.
type Sweep struct {
	mask *Mask
	k    int
	rx   *Dense // R_Ω(X), scored by Objective
	wrx  *Dense // W⊙R_Ω(X) (rx itself when unweighted), read by UPass and VPass
	w    *Dense // confidence weights, nil when unweighted
	uv   *Dense // W⊙R_Ω(UV) of the last Objective's factors; zero off Ω

	vt         []float64 // V copied column-major (M×K)
	numV, denV []float64 // column-major Uᵀ(W⊙R_Ω(X)) and Uᵀ(W⊙R_Ω(UV))
}

// NewSweep prepares the passes over rx = R_Ω(X) for rank-k factors. w, when
// non-nil, weights every residual (the objective becomes Σ w·(x − uv)²).
func (m *Mask) NewSweep(rx, w *Dense, k int) *Sweep {
	if rx.rows != m.rows || rx.cols != m.cols {
		panic(fmt.Sprintf("mat: NewSweep data %dx%d vs mask %dx%d", rx.rows, rx.cols, m.rows, m.cols))
	}
	s := &Sweep{mask: m, k: k, rx: rx, wrx: rx, w: w, uv: NewDense(m.rows, m.cols)}
	if w != nil {
		if w.rows != m.rows || w.cols != m.cols {
			panic(fmt.Sprintf("mat: NewSweep weights %dx%d vs mask %dx%d", w.rows, w.cols, m.rows, m.cols))
		}
		s.wrx = Hadamard(nil, rx, w)
	}
	buf := make([]float64, 3*m.cols*k)
	s.vt, s.numV, s.denV = buf[:m.cols*k], buf[m.cols*k:2*m.cols*k], buf[2*m.cols*k:]
	return s
}

func (s *Sweep) checkFactors(op string, u, v *Dense) {
	m := s.mask
	if u.rows != m.rows || v.cols != m.cols || u.cols != s.k || v.rows != s.k {
		panic(fmt.Sprintf("mat: Sweep.%s %dx%d · %dx%d vs mask %dx%d at rank %d",
			op, u.rows, u.cols, v.rows, v.cols, m.rows, m.cols, s.k))
	}
}

// Objective returns ‖R_Ω(X − UV)‖²_F (Σ w·d·d when weighted) and caches
// W⊙R_Ω(UV) for the next UPass. It reduces over MaskedFrob2Mul's chunk
// partition in its per-row order, so the two return identical bits.
func (s *Sweep) Objective(u, v *Dense) float64 {
	s.checkFactors("Objective", u, v)
	m := s.mask
	k, cols := s.k, m.cols
	ix := m.rowIdx()
	return parallelReduce(m.rows, len(ix.idx)*k, func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			jsr := ix.idx[ix.indptr[i]:ix.indptr[i+1]]
			if len(jsr) == 0 {
				continue
			}
			// Only observed entries are ever written, so the rest of the
			// cache stays at its allocation-time zeros.
			pi := s.uv.data[i*cols : (i+1)*cols]
			predictRow(pi, u.data[i*k:(i+1)*k], v, jsr)
			xi := s.rx.data[i*cols : (i+1)*cols]
			if s.w == nil {
				for _, j := range jsr {
					d := xi[j] - pi[j]
					acc += d * d
				}
				continue
			}
			wi := s.w.data[i*cols : (i+1)*cols]
			for _, j := range jsr {
				d := xi[j] - pi[j]
				acc += wi[j] * d * d
				pi[j] *= wi[j]
			}
		}
		return acc
	})
}

// UPass walks the rows once, computing num = (W⊙R_Ω(X))_i·Vᵀ and
// den = (W⊙R_Ω(UV))_i·Vᵀ from the cached product, and hands each row's pair
// to update, which rewrites row i of the caller's U in place. update runs
// concurrently on disjoint rows and must touch only row i; num and den are
// scratch reused for the next row. The rows are split like MulBTObserved's
// and each sum runs in its order.
func (s *Sweep) UPass(u, v *Dense, update func(i int, num, den []float64)) {
	s.checkFactors("UPass", u, v)
	m := s.mask
	k, cols := s.k, m.cols
	ix := m.rowIdx()
	ParallelRange(m.rows, len(ix.idx)*k, func(lo, hi int) {
		acc := make([]float64, 2*k)
		num, den := acc[:k], acc[k:]
		for i := lo; i < hi; i++ {
			jsr := ix.idx[ix.indptr[i]:ix.indptr[i+1]]
			xi := s.wrx.data[i*cols : (i+1)*cols]
			pi := s.uv.data[i*cols : (i+1)*cols]
			t := 0
			for ; t+4 <= k; t += 4 {
				b0 := v.data[t*cols : (t+1)*cols]
				b1 := v.data[(t+1)*cols : (t+2)*cols]
				b2 := v.data[(t+2)*cols : (t+3)*cols]
				b3 := v.data[(t+3)*cols : (t+4)*cols]
				var n0, n1, n2, n3, d0, d1, d2, d3 float64
				for _, j := range jsr {
					xv, pv := xi[j], pi[j]
					n0 += xv * b0[j]
					n1 += xv * b1[j]
					n2 += xv * b2[j]
					n3 += xv * b3[j]
					d0 += pv * b0[j]
					d1 += pv * b1[j]
					d2 += pv * b2[j]
					d3 += pv * b3[j]
				}
				num[t], num[t+1], num[t+2], num[t+3] = n0, n1, n2, n3
				den[t], den[t+1], den[t+2], den[t+3] = d0, d1, d2, d3
			}
			for ; t < k; t++ {
				bt := v.data[t*cols : (t+1)*cols]
				var nt, dt float64
				for _, j := range jsr {
					nt += xi[j] * bt[j]
					dt += pi[j] * bt[j]
				}
				num[t], den[t] = nt, dt
			}
			update(i, num, den)
		}
	})
}

// VPass recomputes W⊙R_Ω(UV) for the current U and V on the observed
// columns ≥ c0 and accumulates num = Uᵀ(W⊙R_Ω(X)) and den = Uᵀ(W⊙R_Ω(UV))
// column by column. It then hands each column's pair to update, which
// rewrites column j of the caller's V in place (num[t] and den[t] belong to
// row t). Columns below c0 are neither accumulated nor updated. The columns
// are split like MulAT's and each chunk walks i ascending, so num and den
// equal MulAT(u, ·)[:, c0:] over Ω-supported operands bit for bit. update
// runs concurrently on disjoint columns and must touch only column j. The
// cache UPass reads is left as it was.
func (s *Sweep) VPass(u, v *Dense, c0 int, update func(j int, num, den []float64)) {
	s.checkFactors("VPass", u, v)
	m := s.mask
	n, k, cols := m.rows, s.k, m.cols
	if c0 >= cols {
		return
	}
	for t := 0; t < k; t++ {
		for j, vv := range v.data[t*cols : (t+1)*cols] {
			s.vt[j*k+t] = vv
		}
	}
	ix := m.rowIdx()
	vt, numV, denV, wrx := s.vt, s.numV, s.denV, s.wrx.data
	var wd []float64
	if s.w != nil {
		wd = s.w.data
	}
	ParallelRange(cols-c0, n*k*(cols-c0), func(lo, hi int) {
		jlo, jhi := c0+lo, c0+hi
		clear(numV[jlo*k : jhi*k])
		clear(denV[jlo*k : jhi*k])
		for i := 0; i < n; i++ {
			ui := u.data[i*k : (i+1)*k]
			for _, j32 := range ix.idx[ix.indptr[i]:ix.indptr[i+1]] {
				j := int(j32)
				if j < jlo {
					continue
				}
				if j >= jhi {
					break
				}
				// p sums in ProjectMul's order: 4-wide blocks, then the tail.
				vj := vt[j*k : (j+1)*k]
				var p float64
				t := 0
				for ; t+4 <= k; t += 4 {
					p += ui[t]*vj[t] + ui[t+1]*vj[t+1] + ui[t+2]*vj[t+2] + ui[t+3]*vj[t+3]
				}
				for ; t < k; t++ {
					p += ui[t] * vj[t]
				}
				if wd != nil {
					p *= wd[i*cols+j]
				}
				// Exact zeros are skipped like the unobserved entries, so a
				// non-finite U entry cannot turn them into NaN. Reslicing to
				// len(ui) drops the bounds checks in the loops.
				xv := wrx[i*cols+j]
				nj := numV[j*k : (j+1)*k][:len(ui)]
				dj := denV[j*k : (j+1)*k][:len(ui)]
				switch {
				case xv != 0 && p != 0:
					for t, a := range ui {
						nj[t] += a * xv
						dj[t] += a * p
					}
				case xv != 0:
					for t, a := range ui {
						nj[t] += a * xv
					}
				case p != 0:
					for t, a := range ui {
						dj[t] += a * p
					}
				}
			}
		}
		for j := jlo; j < jhi; j++ {
			update(j, numV[j*k:(j+1)*k], denV[j*k:(j+1)*k])
		}
	})
}
