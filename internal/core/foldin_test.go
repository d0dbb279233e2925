package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/metrics"
)

// foldInFixture fits SMFL on the first part of a dataset and returns the
// model plus a held-out tail in the same normalized units.
func foldInFixture(t *testing.T) (*Model, *mat.Dense) {
	t.Helper()
	return foldInFixtureFor(t, SMFL, 2, 50)
}

// foldInFixtureFor is foldInFixture for any method, SI width l of the fit
// (the table always has two SI columns; l = 0 fits them as plain data) and
// dataset seed.
func foldInFixtureFor(t *testing.T, method Method, l int, seed int64) (*Model, *mat.Dense) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "fold", N: 300, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	train := res.Data.X.Slice(0, 240, 0, 6)
	test := res.Data.X.Slice(240, 300, 0, 6)
	model, err := Fit(train, nil, l, method, Config{K: 5, Lambda: 0.1, MaxIter: 200, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	return model, test
}

func TestFoldInShapesAndNonnegativity(t *testing.T) {
	model, test := foldInFixture(t)
	u, err := model.FoldIn(test, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := u.Dims(); r != 60 || c != 5 {
		t.Fatalf("fold-in U shape %dx%d", r, c)
	}
	if mat.Min(u) < 0 {
		t.Fatal("fold-in violated nonnegativity")
	}
	if !u.IsFinite() {
		t.Fatal("fold-in produced non-finite coefficients")
	}
}

// foldInHoldout hides about a quarter of the non-SI cells of rows and,
// with hideSI, one SI cell in every other row.
func foldInHoldout(rows *mat.Dense, hideSI bool) *mat.Mask {
	n, m := rows.Dims()
	omega := mat.FullMask(n, m)
	for i := 0; i < n; i++ {
		for j := 2; j < m; j++ {
			if (i+j)%4 == 0 {
				omega.Hide(i, j)
			}
		}
		if hideSI && i%2 == 0 {
			omega.Hide(i, (i/2)%2)
		}
	}
	return omega
}

// TestCompleteRowsBeatsColumnMeans: every method's fold-in beats the
// column-mean fill on the hidden cells, with the SI observed and with half
// the rows hiding an SI cell (hidden SI is part of the score).
func TestCompleteRowsBeatsColumnMeans(t *testing.T) {
	for _, method := range []Method{SMFL, SMF, NMF} {
		model, test := foldInFixtureFor(t, method, 2, 50)
		for _, hideSI := range []bool{false, true} {
			omega := foldInHoldout(test, hideSI)
			out, err := model.CompleteRows(test, omega, 150)
			if err != nil {
				t.Fatal(err)
			}
			rms, err := metrics.RMSOverHidden(out, test, omega)
			if err != nil {
				t.Fatal(err)
			}
			// Column-mean floor over the test block.
			meanFill := test.Clone()
			if err := dataset.FillColumnMeans(meanFill, omega); err != nil {
				t.Fatal(err)
			}
			meanRMS, err := metrics.RMSOverHidden(meanFill, test, omega)
			if err != nil {
				t.Fatal(err)
			}
			if rms >= meanRMS {
				t.Fatalf("%v, hidden SI %v: fold-in RMS %v not better than column means %v", method, hideSI, rms, meanRMS)
			}
		}
	}
}

func TestCompleteRowsKeepsObserved(t *testing.T) {
	model, test := foldInFixture(t)
	n, m := test.Dims()
	omega := mat.FullMask(n, m)
	omega.Hide(3, 4)
	out, err := model.CompleteRows(test, omega, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if omega.Observed(i, j) && out.At(i, j) != test.At(i, j) {
				t.Fatalf("observed cell (%d,%d) changed", i, j)
			}
		}
	}
}

func TestFoldInValidation(t *testing.T) {
	model, test := foldInFixture(t)
	if _, err := model.FoldIn(mat.NewDense(2, 9), nil, 10); err == nil {
		t.Fatal("expected column mismatch error")
	}
	if _, err := model.FoldIn(mat.NewDense(0, 6), nil, 10); err == nil {
		t.Fatal("expected empty error")
	}
	neg := test.Clone()
	neg.Set(0, 0, -1)
	if _, err := model.FoldIn(neg, nil, 10); err == nil {
		t.Fatal("expected nonnegativity error")
	}
	if _, err := model.FoldIn(test, mat.FullMask(1, 6), 10); err == nil {
		t.Fatal("expected mask shape error")
	}
}

// TestFoldInConcurrent exercises the concurrency contract the serving layer
// relies on: many goroutines folding into one loaded Model concurrently must
// neither race (run under -race) nor diverge from the serial result.
func TestFoldInConcurrent(t *testing.T) {
	model, test := foldInFixture(t)
	n, m := test.Dims()
	omega := mat.FullMask(n, m)
	for i := 0; i < n; i++ {
		omega.Hide(i, 2+(i%(m-2)))
	}
	want, err := model.FoldIn(test, omega, 60)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]*mat.Dense, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = model.FoldIn(test, omega, 60)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !mat.EqualApprox(got[w], want, 0) {
			t.Fatalf("worker %d diverged from the serial fold-in", w)
		}
	}
}

func TestFoldInReconstructsTrainingRows(t *testing.T) {
	// Folding the training rows themselves back in must reconstruct them
	// about as well as the fitted model does.
	model, _ := foldInFixture(t)
	res, err := dataset.Generate(dataset.Spec{
		Name: "fold", N: 300, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	train := res.Data.X.Slice(0, 240, 0, 6)
	u, err := model.FoldIn(train, nil, 200)
	if err != nil {
		t.Fatal(err)
	}
	foldErr := mat.FrobNorm(mat.Sub(nil, mat.Mul(nil, u, model.V), train))
	fitErr := mat.FrobNorm(mat.Sub(nil, model.Predict(), train))
	if foldErr > 1.5*fitErr+1e-9 {
		t.Fatalf("fold-in reconstruction %v much worse than fit %v", foldErr, fitErr)
	}
}

// TestFoldInSingleRowMatchesBatchRow pins down batch-position independence:
// every row of a batched fold-in follows exactly the same trajectory as a
// single-row fold-in of that row (one shared start, per-row convergence
// test, updates that only touch u_i), so the two must agree bit-for-bit.
// Under per-row random starts a row's result would depend on where it sits
// in the batch, and under a batch-global convergence test a fast row would
// keep iterating alongside the slowest row and drift away from its
// single-row result.
func TestFoldInSingleRowMatchesBatchRow(t *testing.T) {
	model, test := foldInFixture(t)
	n, m := test.Dims()
	omega := mat.FullMask(n, m)
	for i := 0; i < n; i++ {
		omega.Hide(i, 2+(i%(m-2)))
	}
	batch, err := model.FoldIn(test, omega, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := test.Slice(i, i+1, 0, m)
		rowOmega := mat.NewMask(1, m)
		for j := 0; j < m; j++ {
			if omega.Observed(i, j) {
				rowOmega.Observe(0, j)
			}
		}
		single, err := model.FoldIn(row, rowOmega, 200)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < model.Config.K; k++ {
			if math.Float64bits(single.At(0, k)) != math.Float64bits(batch.At(i, k)) {
				t.Fatalf("row %d coefficient %d: single-row %v vs batch %v",
					i, k, single.At(0, k), batch.At(i, k))
			}
		}
	}
}

// TestFoldInAllocsPerRowConstant bounds a single-row fold-in's allocations
// well below one per iteration, so per-iteration scratch cannot creep back
// into the sweep loop, and its bytes to 1 KiB, so per-call work that depends
// only on the model (the start row's RNG, Vᵀ) stays in the cached basis.
// The fixture's rows run dozens of iterations before freezing.
func TestFoldInAllocsPerRowConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	model, test := foldInFixture(t)
	_, m := test.Dims()
	row := test.Slice(0, 1, 0, m)
	foldIn := func() {
		if _, err := model.FoldIn(row, nil, 100); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, foldIn)
	if allocs > 32 {
		t.Fatalf("single-row FoldIn made %.0f allocations, want at most 32 (none per iteration)", allocs)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		foldIn()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 1024 {
		t.Fatalf("single-row FoldIn allocated %d B per call, want at most 1 KiB", perCall)
	}
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, so a test can cancel a fold-in between two rows.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestFoldInCancellation: a context cancelled mid-batch stops FoldIn at the
// next row boundary, returning the coefficient block with the rows solved
// so far and an error wrapping ErrInterrupted; a pre-cancelled context
// solves no row.
func TestFoldInCancellation(t *testing.T) {
	model, test := foldInFixture(t)
	want, err := model.FoldIn(test, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	model.Config.Ctx = &cancelAfter{Context: context.Background(), n: 4}
	u, err := model.FoldIn(test, nil, 0)
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrInterrupted wrapping context.Canceled", err)
	}
	if u == nil {
		t.Fatal("cancelled FoldIn must return the partial coefficients")
	}
	if r, c := u.Dims(); r != test.Rows() || c != model.Config.K {
		t.Fatalf("partial coefficients are %dx%d", r, c)
	}
	// Every row is either solved exactly as in the uncancelled call or
	// left zero, and some rows are left.
	left := 0
	for i := 0; i < test.Rows(); i++ {
		row := u.Row(i)
		if mat.Max(u.Slice(i, i+1, 0, len(row))) == 0 {
			left++
			continue
		}
		for k, v := range row {
			if math.Float64bits(v) != math.Float64bits(want.At(i, k)) {
				t.Fatalf("row %d: partial answer %v differs from the full one %v", i, row, want.Row(i))
			}
		}
	}
	if left == 0 {
		t.Fatal("a mid-batch cancellation solved every row")
	}

	// A pre-cancelled context stops before the first row.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	model.Config.Ctx = done
	u, err = model.FoldIn(test, nil, 0)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("pre-cancelled context: got %v", err)
	}
	if mat.Max(u) != 0 {
		t.Fatal("a pre-cancelled fold-in solved a row")
	}
}
