package mat

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomSparseProblem builds an n×m data matrix, an observation mask at the
// given density, and k-factor matrices, all seeded.
func randomSparseProblem(t *testing.T, n, m, k int, density float64, seed int64) (*Dense, *Mask, *Dense, *Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := RandomUniform(rng, n, m, 0, 1)
	u := RandomUniform(rng, n, k, 1e-3, 1)
	v := RandomUniform(rng, k, m, 1e-3, 1)
	mask := NewMask(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < density {
				mask.Observe(i, j)
			}
		}
	}
	return x, mask, u, v
}

func TestBatchSamplerPartitionsOmega(t *testing.T) {
	_, mask, _, _ := randomSparseProblem(t, 97, 11, 3, 0.4, 1)
	s := NewBatchSampler(mask, 40, 7)
	for epoch := 0; epoch < 3; epoch++ {
		s.Reshuffle()
		seen := make([]bool, 97)
		cells := 0
		for b := 0; b < s.NumBatches(); b++ {
			for _, r := range s.Batch(b) {
				if seen[r] {
					t.Fatalf("epoch %d: row %d sampled twice", epoch, r)
				}
				seen[r] = true
			}
			cells += s.BatchCells(b)
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("epoch %d: row %d never sampled", epoch, r)
			}
		}
		if cells != mask.Count() {
			t.Fatalf("epoch %d: batches cover %d cells, Ω has %d", epoch, cells, mask.Count())
		}
		for b := 0; b < s.NumBatches()-1; b++ {
			if s.BatchCells(b) < 40 {
				t.Fatalf("epoch %d: non-final batch %d has %d cells, target 40", epoch, b, s.BatchCells(b))
			}
		}
	}
}

// TestBatchSamplerStateReplay is the rollback/resume contract: restoring a
// snapshotted state and reshuffling must regenerate the identical epoch,
// regardless of how many epochs were consumed in between.
func TestBatchSamplerStateReplay(t *testing.T) {
	_, mask, _, _ := randomSparseProblem(t, 60, 9, 3, 0.5, 2)
	s := NewBatchSampler(mask, 25, 99)
	s.Reshuffle() // epoch 0 consumed
	pre := s.State()
	s.Reshuffle()
	want := append([]int32(nil), s.perm...)
	wantStarts := append([]int(nil), s.starts...)
	s.Reshuffle()
	s.Reshuffle() // wander ahead
	s.SetState(pre)
	s.Reshuffle()
	if len(s.starts) != len(wantStarts) {
		t.Fatalf("replayed epoch has %d boundaries, want %d", len(s.starts), len(wantStarts))
	}
	for i := range wantStarts {
		if s.starts[i] != wantStarts[i] {
			t.Fatalf("boundary %d: %d vs %d", i, s.starts[i], wantStarts[i])
		}
	}
	for i := range want {
		if s.perm[i] != want[i] {
			t.Fatalf("perm[%d]: %d vs %d", i, s.perm[i], want[i])
		}
	}
}

// naiveVGrad computes gv[r][j] = Σ_{(i,j)∈Ω, j≥c0} (x−uv)_ij·u_ir directly.
func naiveVGrad(x *Dense, mask *Mask, u, v *Dense, c0 int) *Dense {
	n, m := x.Dims()
	_, k := u.Dims()
	gv := NewDense(k, m)
	for i := 0; i < n; i++ {
		for j := c0; j < m; j++ {
			if !mask.Observed(i, j) {
				continue
			}
			var pred float64
			for r := 0; r < k; r++ {
				pred += u.At(i, r) * v.At(r, j)
			}
			e := x.At(i, j) - pred
			for r := 0; r < k; r++ {
				gv.Set(r, j, gv.At(r, j)+e*u.At(i, r))
			}
		}
	}
	return gv
}

func TestVGradObservedMatchesNaive(t *testing.T) {
	for _, c0 := range []int{0, 2} {
		x, mask, u, v := randomSparseProblem(t, 35, 9, 5, 0.45, 3)
		want := naiveVGrad(x, mask, u, v, c0)
		got := NewDense(5, 9)
		VGradObserved(NewDenseSource(x, mask), got, u, v, c0, NewBatchScratch())
		for i, wv := range want.Data() {
			if d := math.Abs(got.Data()[i] - wv); d > 1e-12 {
				t.Fatalf("c0=%d: entry %d differs by %g", c0, i, d)
			}
		}
	}
}

// TestStochasticStepMatchesNaive checks the fused kernel against a direct
// per-row implementation of the same Gauss-Seidel order: residuals at the old
// row, projected U step, residuals at the new row, V accumulation.
func TestStochasticStepMatchesNaive(t *testing.T) {
	const lr = 0.01
	for _, c0 := range []int{0, 2} {
		x, mask, u, v := randomSparseProblem(t, 40, 8, 4, 0.5, 4)
		rows := []int32{3, 17, 9, 31, 0}

		uRef := u.Clone()
		n, m := x.Dims()
		_ = n
		_, k := u.Dims()
		for _, ri := range rows {
			i := int(ri)
			e := make([]float64, m)
			for j := 0; j < m; j++ {
				if !mask.Observed(i, j) {
					continue
				}
				var pred float64
				for r := 0; r < k; r++ {
					pred += uRef.At(i, r) * v.At(r, j)
				}
				e[j] = x.At(i, j) - pred
			}
			for r := 0; r < k; r++ {
				var s float64
				for j := 0; j < m; j++ {
					if mask.Observed(i, j) {
						s += e[j] * v.At(r, j)
					}
				}
				nv := uRef.At(i, r) + 2*lr*s
				if nv < 0 {
					nv = 0
				}
				uRef.Set(i, r, nv)
			}
		}
		// V-direction at the updated rows, restricted to the sampled rows.
		sub := NewMask(40, 8)
		for _, ri := range rows {
			for j := 0; j < 8; j++ {
				if mask.Observed(int(ri), j) {
					sub.Observe(int(ri), j)
				}
			}
		}
		wantGV := naiveVGrad(x, sub, uRef, v, c0)

		gv := NewDense(4, 8)
		StochasticStep(NewDenseSource(x, mask), gv, u, v, rows, lr, c0, nil, nil, NewBatchScratch())
		for i, wv := range uRef.Data() {
			if d := math.Abs(u.Data()[i] - wv); d > 1e-12 {
				t.Fatalf("c0=%d: U entry %d differs by %g", c0, i, d)
			}
		}
		for i, wv := range wantGV.Data() {
			if d := math.Abs(gv.Data()[i] - wv); d > 1e-12 {
				t.Fatalf("c0=%d: gv entry %d differs by %g", c0, i, d)
			}
		}
	}
}

// TestStochasticStepSVRGCorrection checks that the anchored variant returns
// the plain batch direction minus the anchor's batch direction.
func TestStochasticStepSVRGCorrection(t *testing.T) {
	x, mask, u, v := randomSparseProblem(t, 30, 7, 3, 0.6, 5)
	rng := rand.New(rand.NewSource(6))
	au := RandomUniform(rng, 30, 3, 1e-3, 1)
	av := RandomUniform(rng, 3, 7, 1e-3, 1)
	rows := []int32{1, 5, 20, 11}

	uPlain := u.Clone()
	plain := NewDense(3, 7)
	StochasticStep(NewDenseSource(x, mask), plain, uPlain, v, rows, 0.01, 0, nil, nil, NewBatchScratch())

	sub := NewMask(30, 7)
	for _, ri := range rows {
		for j := 0; j < 7; j++ {
			if mask.Observed(int(ri), j) {
				sub.Observe(int(ri), j)
			}
		}
	}
	anchorDir := naiveVGrad(x, sub, au, av, 0)

	got := NewDense(3, 7)
	StochasticStep(NewDenseSource(x, mask), got, u, v, rows, 0.01, 0, au, av, NewBatchScratch())
	for i := range got.Data() {
		want := plain.Data()[i] - anchorDir.Data()[i]
		if d := math.Abs(got.Data()[i] - want); d > 1e-10 {
			t.Fatalf("entry %d: got %g want %g", i, got.Data()[i], want)
		}
	}
	// The updated U must match the plain step: anchors only shape gv.
	for i := range u.Data() {
		if u.Data()[i] != uPlain.Data()[i] {
			t.Fatalf("U entry %d diverged between plain and anchored steps", i)
		}
	}
}

// TestStochasticStepDeterministicPooled pins the determinism contract: with
// the pooled path forced, repeated runs at a fixed pool size produce
// bit-identical U and gv.
func TestStochasticStepDeterministicPooled(t *testing.T) {
	defer SetThreshold(SetThreshold(1))
	defer SetWorkers(SetWorkers(4))
	x, mask, u0, v := randomSparseProblem(t, 120, 10, 4, 0.5, 7)
	rows := make([]int32, 0, 120)
	for i := 0; i < 120; i += 2 {
		rows = append(rows, int32(i))
	}
	run := func() (*Dense, *Dense) {
		u := u0.Clone()
		gv := NewDense(4, 10)
		StochasticStep(NewDenseSource(x, mask), gv, u, v, rows, 0.01, 0, nil, nil, NewBatchScratch())
		return u, gv
	}
	u1, g1 := run()
	u2, g2 := run()
	for i := range u1.Data() {
		if u1.Data()[i] != u2.Data()[i] {
			t.Fatalf("pooled U entry %d not bit-identical", i)
		}
	}
	for i := range g1.Data() {
		if g1.Data()[i] != g2.Data()[i] {
			t.Fatalf("pooled gv entry %d not bit-identical", i)
		}
	}
}

// TestRowIdxConcurrentFirstUse drives the satellite fix: many goroutines
// hitting a freshly invalidated mask index concurrently must neither race
// (run under -race) nor observe different CSR views.
func TestRowIdxConcurrentFirstUse(t *testing.T) {
	_, mask, _, _ := randomSparseProblem(t, 200, 16, 3, 0.3, 8)
	for round := 0; round < 5; round++ {
		mask.index.Store(nil) // simulate first use after a mutation
		var wg sync.WaitGroup
		got := make([]*maskIndex, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = mask.rowIdx()
			}(g)
		}
		wg.Wait()
		for g := 1; g < 8; g++ {
			if got[g] != got[0] {
				t.Fatalf("round %d: goroutine %d built a duplicate index", round, g)
			}
		}
		if len(got[0].idx) != mask.Count() {
			t.Fatalf("round %d: index has %d cells, mask %d", round, len(got[0].idx), mask.Count())
		}
	}
}
