package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

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

// foldInQP builds row i's fold-in problem, min ½uᵀGu − bᵀu over u ≥ 0, from
// the model alone, as FoldIn documents it: G = V_Ω V_Ωᵀ + λ|N|·I and
// b = V_Ω x_Ω + λ Σ_{j∈N} u_j, with N the row's p nearest training rows in
// siHat = Û_SI = U·V[:, :L] found by brute force (hidden SI cells take Û_SI's
// column means), or, when L = 0, the mean U row counted p times.
func foldInQP(m *Model, siHat, rows *mat.Dense, omega *mat.Mask, i int) (g *mat.Dense, b []float64) {
	k, cols := m.V.Dims()
	g = mat.NewDense(k, k)
	b = make([]float64, k)
	for j := 0; j < cols; j++ {
		if omega != nil && !omega.Observed(i, j) {
			continue
		}
		for s := 0; s < k; s++ {
			b[s] += m.V.At(s, j) * rows.At(i, j)
			for t := 0; t < k; t++ {
				g.Set(s, t, g.At(s, t)+m.V.At(s, j)*m.V.At(t, j))
			}
		}
	}
	lambda, p := m.Config.Lambda, m.Config.P
	if lambda <= 0 || p <= 0 || m.U == nil {
		return g, b
	}
	n := m.U.Rows()
	var nbrs []int
	if m.L == 0 {
		for ; len(nbrs) < p; nbrs = append(nbrs, -1) {
		}
	} else {
		q := make([]float64, m.L)
		for j := range q {
			if omega == nil || omega.Observed(i, j) {
				q[j] = rows.At(i, j)
				continue
			}
			for r := 0; r < n; r++ {
				q[j] += siHat.At(r, j)
			}
			q[j] /= float64(n)
		}
		dist := make([]float64, n)
		order := make([]int, n)
		for r := range order {
			order[r] = r
			for j, v := range q {
				d := v - siHat.At(r, j)
				dist[r] += d * d
			}
		}
		sort.SliceStable(order, func(a, c int) bool { return dist[order[a]] < dist[order[c]] })
		nbrs = order[:min(p, n)]
	}
	for _, r := range nbrs {
		for t := 0; t < k; t++ {
			if r < 0 { // L = 0: the mean U row
				var mu float64
				for q := 0; q < n; q++ {
					mu += m.U.At(q, t)
				}
				b[t] += lambda * mu / float64(n)
			} else {
				b[t] += lambda * m.U.At(r, t)
			}
		}
	}
	for t := 0; t < k; t++ {
		g.Set(t, t, g.At(t, t)+lambda*float64(len(nbrs)))
	}
	return g, b
}

// checkKKT holds every row of a fold-in to the optimality conditions of its
// convex QP: u ≥ 0, gradient Gu − b ≥ 0, and u_t·(Gu − b)_t = 0, each to
// 1e-9 of the row's scale. It returns how many coordinates sit on the bound
// u_t = 0 with a strictly positive gradient.
func checkKKT(t *testing.T, m *Model, rows *mat.Dense, omega *mat.Mask, u *mat.Dense) (bound int) {
	t.Helper()
	var siHat *mat.Dense
	if m.U != nil && m.L > 0 {
		k, _ := m.V.Dims()
		siHat = mat.Mul(nil, m.U, m.V.Slice(0, k, 0, m.L))
	}
	r, k := u.Dims()
	for i := 0; i < r; i++ {
		g, b := foldInQP(m, siHat, rows, omega, i)
		scale := 1.0
		for s := 0; s < k; s++ {
			scale = math.Max(scale, math.Max(g.At(s, s), math.Abs(b[s])))
		}
		tol := 1e-9 * scale
		ui := u.Row(i)
		for s := 0; s < k; s++ {
			grad := -b[s]
			for c := 0; c < k; c++ {
				grad += g.At(s, c) * ui[c]
			}
			switch {
			case ui[s] < 0 || math.IsNaN(ui[s]):
				t.Fatalf("row %d: u[%d] = %v is not ≥ 0", i, s, ui[s])
			case grad < -tol:
				t.Fatalf("row %d: gradient[%d] = %v < 0; u = %v", i, s, grad, ui)
			case math.Abs(ui[s]*grad) > tol*math.Max(1, ui[s]):
				t.Fatalf("row %d: u[%d]·gradient = %v·%v is not 0", i, s, ui[s], grad)
			}
			if ui[s] == 0 && grad > tol {
				bound++
			}
		}
	}
	return bound
}

// checkFoldIn runs FoldIn twice (the second call reuses the cached basis),
// FoldInCtx and CompleteRows, requires the same bits from all four, and
// holds the answer to the KKT conditions. It returns checkKKT's count.
func checkFoldIn(t *testing.T, m *Model, rows *mat.Dense, omega *mat.Mask) int {
	t.Helper()
	u, err := m.FoldIn(rows, omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.FoldIn(rows, omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(again, u); err != nil {
		t.Fatalf("second FoldIn: %v", err)
	}
	withCtx, err := m.FoldInCtx(context.Background(), rows, omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(withCtx, u); err != nil {
		t.Fatalf("FoldInCtx: %v", err)
	}
	completed, err := m.CompleteRows(rows, omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := omega
	if full == nil {
		full = mat.FullMask(rows.Dims())
	}
	if err := sameBits(completed, full.Recover(rows, mat.Mul(nil, u, m.V))); err != nil {
		t.Fatalf("CompleteRows: %v", err)
	}
	return checkKKT(t, m, rows, omega, u)
}

// TestFoldInKKT: every fold-in row is the exact minimizer of its QP.
//
// The method cases cover NMF, SMF and SMFL fits, an SMFL landmark-index
// fit, an NMF fit without SI (L = 0, mean-row anchor), and a hand-built
// model with λ = 0 (plain NNLS, including rows observing fewer cells than
// K, whose G is singular), on rows that hide non-SI cells and, in every
// other row, an SI cell; the same rows split across pooled chunks must
// give the same bits.
//
// The grid cases cover K ∈ {3, 6, 10}, three seeds and 1, 16 and 256 rows
// with a quarter of the cells hidden (SI included) and with none, for
// models from Fit with and without a landmark placer, from a
// SaveFile/LoadFile round trip, and from a literal carrying only V.
func TestFoldInKKT(t *testing.T) {
	t.Run("methods", func(t *testing.T) {
		models := map[string]*Model{}
		var test *mat.Dense
		for _, method := range []Method{NMF, SMF, SMFL} {
			models[method.String()], test = foldInFixtureFor(t, method, 2, 50)
		}
		models["NMF L=0"], _ = foldInFixtureFor(t, NMF, 0, 50)
		lm, err := Fit(test, nil, 2, SMFL, Config{K: 5, MaxIter: 30, Seed: 3, SpatialIndex: SpatialLandmark})
		if err != nil {
			t.Fatal(err)
		}
		models["SMFL landmark"] = lm
		rng := rand.New(rand.NewSource(9))
		models["hand-built λ=0"] = &Model{
			Method: SMFL, L: 2, Config: Config{K: 5, Lambda: 0, P: 3},
			U: mat.RandomUniform(rng, 40, 5, 0, 1), V: mat.RandomUniform(rng, 5, 6, 0.05, 1),
		}
		n, cols := test.Dims()
		omega := foldInHoldout(test, true)
		for i := 0; i < n; i += 7 { // sparse rows: two observed cells
			for j := 0; j < cols; j++ {
				if j != i%cols && j != (i+3)%cols {
					omega.Hide(i, j)
				}
			}
		}
		names := make([]string, 0, len(models))
		for name := range models {
			names = append(names, name)
		}
		sort.Strings(names)
		bound := 0
		for _, name := range names {
			m := models[name]
			t.Run(name, func(t *testing.T) {
				b := checkFoldIn(t, m, test, omega)
				t.Logf("%d coordinates on the bound u = 0", b)
				bound += b
				u, err := m.FoldIn(test, omega, 0)
				if err != nil {
					t.Fatal(err)
				}
				threshold, workers := mat.SetThreshold(1), mat.SetWorkers(3)
				pooled, err := m.FoldIn(test, omega, 0)
				mat.SetWorkers(workers)
				mat.SetThreshold(threshold)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(pooled, u); err != nil {
					t.Fatalf("pooled fold-in differs from the serial one: %v", err)
				}
			})
		}
		if bound == 0 {
			t.Fatal("no coordinate sat on the bound: the check never exercised u ≥ 0")
		}
	})
	t.Run("grid", func(t *testing.T) {
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
				for _, name := range []string{"fit", "fit+placer", "loaded", "literal"} {
					m := models[name]
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
							checkFoldIn(t, m, sub, subOmega)
							checkFoldIn(t, m, sub, nil)
						})
					}
				}
			}
		}
	})
}

// rebuilt is a copy of m without its cached fold-in basis.
func rebuilt(m *Model) *Model {
	return &Model{Method: m.Method, Config: m.Config, L: m.L, U: m.U, V: m.V, C: m.C, Placer: m.Placer}
}

// TestFoldInBasisNeverStale: replacing U or V after a fold-in rebuilds the
// basis, so the model answers exactly like a copy that never cached one.
func TestFoldInBasisNeverStale(t *testing.T) {
	model, test := foldInFixture(t)
	rows := test.Slice(0, 8, 0, test.Cols())
	before, err := model.FoldIn(rows, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	replace := map[string]func(){
		"U": func() { model.U = mat.RandomUniform(rng, model.U.Rows(), model.Config.K, 0, 1) },
		"V": func() { model.V = mat.RandomUniform(rng, model.Config.K, test.Cols(), 0.05, 1) },
	}
	for _, name := range []string{"U", "V"} {
		replace[name]()
		got, err := model.FoldIn(rows, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rebuilt(model).FoldIn(rows, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, want); err != nil {
			t.Fatalf("after replacing %s: %v", name, err)
		}
		if sameBits(got, before) == nil {
			t.Fatalf("replacing %s changed no answer", name)
		}
		before = got
	}
}

// TestFoldInBasisConcurrentFirstUse: goroutines racing to derive a freshly
// loaded model's basis (run under -race) all answer like a serial fold-in.
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
	want, err := rebuilt(fresh).FoldIn(test, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	workers := 2 * runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, err := fresh.FoldIn(test, nil, 0)
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
