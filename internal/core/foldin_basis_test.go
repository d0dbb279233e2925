package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

// refFoldIn is the fold-in as it ran before the per-model basis: it reseeds
// a fresh RNG for the start row, transposes V and tests every mask bit on
// every call, and solves each row on its own. The cached FoldIn must match
// it bit for bit.
func refFoldIn(m *Model, rows *mat.Dense, omega *mat.Mask, iters int) *mat.Dense {
	r, cols := rows.Dims()
	k := m.Config.K
	if omega == nil {
		omega = mat.FullMask(r, cols)
	}
	if iters <= 0 {
		iters = 100
	}
	eps := m.Config.Eps
	if eps == 0 { //lint:ignore floatcmp zero config value means unset
		eps = 1e-12
	}
	tol := m.Config.FoldInTol
	if tol <= 0 {
		tol = 1e-8
	}
	rng := rand.New(rand.NewSource(m.Config.Seed + 1))
	start := mat.RandomUniform(rng, 1, k, 1e-3, 1).Row(0)
	vt := m.V.T()
	dot := func(u, v []float64) float64 { // mat.DotVec's accumulation order
		var p0, p1, p2, p3 float64
		t := 0
		for ; t+4 <= len(u); t += 4 {
			p0 += u[t] * v[t]
			p1 += u[t+1] * v[t+1]
			p2 += u[t+2] * v[t+2]
			p3 += u[t+3] * v[t+3]
		}
		p := (p0 + p2) + (p1 + p3)
		for ; t < len(u); t++ {
			p += u[t] * v[t]
		}
		return p
	}
	u := mat.NewDense(r, k)
	num := make([]float64, k)
	den := make([]float64, k)
	for i := 0; i < r; i++ {
		ui := u.Row(i)
		copy(ui, start)
		if m.Placer != nil && m.L > 0 && m.L <= cols && m.Placer.Dim() == m.L && m.Placer.Coeff().Cols() == k {
			si := make([]float64, m.L)
			seen := true
			for j := 0; j < m.L; j++ {
				if !omega.Observed(i, j) {
					seen = false
					break
				}
				si[j] = rows.At(i, j)
			}
			if seen {
				m.Placer.WarmStart(ui, si)
			}
		}
		prev := math.Inf(1)
		for it := 0; it < iters; it++ {
			for t := range num {
				num[t], den[t] = 0, 0
			}
			for j := 0; j < cols; j++ {
				if !omega.Observed(i, j) {
					continue
				}
				p := dot(ui, vt.Row(j))
				for t, vv := range vt.Row(j) {
					num[t] += rows.At(i, j) * vv
					den[t] += p * vv
				}
			}
			for t := range ui {
				ui[t] = ui[t] * num[t] / (den[t] + eps)
			}
			var obj float64
			for j := 0; j < cols; j++ {
				if omega.Observed(i, j) {
					d := rows.At(i, j) - dot(ui, vt.Row(j))
					obj += d * d
				}
			}
			if !math.IsInf(prev, 1) && math.Abs(prev-obj) <= tol*math.Max(prev, 1e-12) {
				break
			}
			prev = obj
		}
	}
	return u
}

// sameBits reports the first entry where a and b differ in any bit.
func sameBits(a, b *mat.Dense) error {
	ar, ac := a.Dims()
	if br, bc := b.Dims(); ar != br || ac != bc {
		return fmt.Errorf("shape %dx%d vs %dx%d", ar, ac, br, bc)
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return fmt.Errorf("entry %d: %v vs %v", i, v, b.Data()[i])
		}
	}
	return nil
}

// checkFoldInMatchesRef runs FoldIn twice (the second call reuses the cached
// basis), FoldInCtx and CompleteRows against the reference.
func checkFoldInMatchesRef(t *testing.T, m *Model, rows *mat.Dense, omega *mat.Mask, iters int) {
	t.Helper()
	want := refFoldIn(m, rows, omega, iters)
	for call := 0; call < 2; call++ {
		got, err := m.FoldIn(rows, omega, iters)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, want); err != nil {
			t.Fatalf("FoldIn call %d: %v", call, err)
		}
	}
	got, err := m.FoldInCtx(context.Background(), rows, omega, iters)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(got, want); err != nil {
		t.Fatalf("FoldInCtx: %v", err)
	}
	completed, err := m.CompleteRows(rows, omega, iters)
	if err != nil {
		t.Fatal(err)
	}
	r, cols := rows.Dims()
	full := omega
	if full == nil {
		full = mat.FullMask(r, cols)
	}
	if err := sameBits(completed, full.Recover(rows, mat.Mul(nil, want, m.V))); err != nil {
		t.Fatalf("CompleteRows: %v", err)
	}
}

// TestFoldInBasisMatchesReference: the per-model fold-in basis changes no
// bit of any answer, for models from Fit (with and without a landmark
// Placer), from a SaveFile/LoadFile round trip and from a hand-built
// literal, at K ∈ {3, 6, 10}, three seeds and 1, 16 and 256 rows.
func TestFoldInBasisMatchesReference(t *testing.T) {
	const train, fresh, cols, l = 200, 256, 8, 2
	dir := t.TempDir()
	for _, k := range []int{3, 6, 10} {
		for _, seed := range []int64{3, 17, 91} {
			res, err := dataset.Generate(dataset.Spec{
				Name: "basis", N: train + fresh, M: cols, L: l,
				Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.Data.Normalize(); err != nil {
				t.Fatal(err)
			}
			x := res.Data.X
			rows := x.Slice(train, train+fresh, 0, cols)
			// Hide about a quarter of the cells, SI included, so some rows
			// take the Placer warm start and some the shared start.
			rng := rand.New(rand.NewSource(seed))
			omega := mat.FullMask(fresh, cols)
			for i := 0; i < fresh; i++ {
				for j := 0; j < cols; j++ {
					if rng.Float64() < 0.25 {
						omega.Hide(i, j)
					}
				}
			}
			models := map[string]*Model{}
			for _, idx := range []SpatialIndex{SpatialExact, SpatialLandmark} {
				cfg := Config{K: k, Lambda: 0.1, P: 3, MaxIter: 15, Seed: seed, SpatialIndex: idx}
				m, err := Fit(x.Slice(0, train, 0, cols), nil, l, SMFL, cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := "fit"
				if m.Placer != nil {
					name = "fit+placer"
				}
				models[name] = m
			}
			if models["fit+placer"] == nil {
				t.Fatal("a SpatialLandmark fit carries no Placer")
			}
			path := filepath.Join(dir, fmt.Sprintf("k%d-s%d.smfl", k, seed))
			if err := models["fit+placer"].SaveFile(path); err != nil {
				t.Fatal(err)
			}
			if models["loaded"], err = LoadFile(path); err != nil {
				t.Fatal(err)
			}
			models["literal"] = &Model{
				Method: SMFL, L: l,
				Config: Config{K: k, Seed: seed},
				V:      mat.RandomUniform(rng, k, cols, 0.05, 1),
			}
			for name, m := range models {
				for _, n := range []int{1, 16, 256} {
					t.Run(fmt.Sprintf("K=%d/seed=%d/%s/rows=%d", k, seed, name, n), func(t *testing.T) {
						sub := rows.Slice(0, n, 0, cols)
						subOmega := mat.NewMask(n, cols)
						for i := 0; i < n; i++ {
							for j := 0; j < cols; j++ {
								if omega.Observed(i, j) {
									subOmega.Observe(i, j)
								}
							}
						}
						checkFoldInMatchesRef(t, m, sub, subOmega, 40)
						checkFoldInMatchesRef(t, m, sub, nil, 40)
					})
				}
			}
		}
	}
}

// TestFoldInBasisNeverStale: replacing V or changing Seed or K after a
// fold-in rebuilds the basis instead of serving the old one.
func TestFoldInBasisNeverStale(t *testing.T) {
	model, test := foldInFixture(t)
	rows := test.Slice(0, 8, 0, test.Cols())
	checkFoldInMatchesRef(t, model, rows, nil, 50)

	rng := rand.New(rand.NewSource(5))
	model.V = mat.RandomUniform(rng, model.Config.K, test.Cols(), 0.05, 1)
	checkFoldInMatchesRef(t, model, rows, nil, 50)

	model.Config.Seed++
	checkFoldInMatchesRef(t, model, rows, nil, 50)

	model.Config.K++
	model.V = mat.RandomUniform(rng, model.Config.K, test.Cols(), 0.05, 1)
	model.Placer = nil // the Placer's coefficients are K-1 wide
	checkFoldInMatchesRef(t, model, rows, nil, 50)
}

// TestFoldInBasisConcurrentFirstUse: goroutines racing to derive a fresh
// model's basis (run under -race) all answer like the reference.
func TestFoldInBasisConcurrentFirstUse(t *testing.T) {
	model, test := foldInFixture(t)
	path := filepath.Join(t.TempDir(), "m.smfl")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := refFoldIn(fresh, test, nil, 60)
	workers := 2 * runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, err := fresh.FoldIn(test, nil, 60)
			if err == nil {
				err = sameBits(got, want)
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}
