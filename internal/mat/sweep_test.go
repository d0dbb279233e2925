package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sweepOracle is what the three Sweep passes must reproduce, composed from
// the stand-alone kernels: ProjectMul (times W) for the cached product,
// MaskedFrob2Mul or MaskedWeightedFrob2Mul for the objective, MulBTObserved
// for the U pass, and MulAT restricted to columns ≥ c0 for the V pass.
type sweepOracle struct {
	obj                    float64
	uv                     *Dense // W⊙R_Ω(UV)
	numU, denU, numV, denV *Dense
}

func newSweepOracle(omega *Mask, rx, w, u, v *Dense) sweepOracle {
	var o sweepOracle
	wrx := rx
	if w != nil {
		wrx = Hadamard(nil, rx, w)
		o.obj = omega.MaskedWeightedFrob2Mul(rx, u, v, w)
	} else {
		o.obj = omega.MaskedFrob2Mul(rx, u, v)
	}
	o.uv = omega.ProjectMul(nil, u, v)
	if w != nil {
		Hadamard(o.uv, o.uv, w)
	}
	o.numU = omega.MulBTObserved(nil, wrx, v)
	o.denU = omega.MulBTObserved(nil, o.uv, v)
	o.numV = MulAT(nil, u, wrx)
	o.denV = MulAT(nil, u, o.uv)
	return o
}

// sweepMismatch reports whether got differs from want: in any bit when
// exact, else by more than 1e-12 relative.
func sweepMismatch(got, want float64, exact bool) bool {
	if exact {
		return math.Float64bits(got) != math.Float64bits(want)
	}
	return math.Abs(got-want) > 1e-12*math.Max(math.Abs(want), 1e-300)
}

// TestSweepPassesMatchKernels holds the three passes of one full-sweep
// iteration to the stand-alone kernels they replace, over densities on both
// sides of DenseCutover, landmark offsets, weights, and pooled partitions.
// Below the cutover every value must be Float64bits-identical. At or above
// it the stand-alone MulBTObserved delegates to MulBT's split accumulators,
// so the U pass may differ from it in the last bits (≤1e-12 relative); the
// objective, the cached product and the V pass stay exact there too.
func TestSweepPassesMatchKernels(t *testing.T) {
	oldThreshold := SetThreshold(1)
	t.Cleanup(func() { SetThreshold(oldThreshold); SetWorkers(0) })
	shapes := []struct{ n, k, m int }{{1, 1, 3}, {23, 3, 9}, {40, 6, 7}, {70, 4, 130}}
	for _, workers := range []int{1, 2, 3} {
		SetWorkers(workers)
		for _, sh := range shapes {
			for _, density := range []float64{0, 0.3, 0.64, 0.85, 1} {
				for _, weighted := range []bool{false, true} {
					for _, c0 := range []int{0, 2} {
						rng := rand.New(rand.NewSource(int64(sh.n*131 + sh.m*7 + int(density*100))))
						omega := randomMask(rng, sh.n, sh.m, density)
						rx := omega.Project(nil, RandomUniform(rng, sh.n, sh.m, 0, 1))
						u := RandomUniform(rng, sh.n, sh.k, 0, 1)
						v := RandomUniform(rng, sh.k, sh.m, 0, 1)
						var w *Dense
						if weighted {
							w = RandomUniform(rng, sh.n, sh.m, 0.5, 2)
						}
						checkSweep(t, omega, rx, w, u, v, c0)
					}
				}
			}
		}
	}
}

func checkSweep(t *testing.T, omega *Mask, rx, w, u, v *Dense, c0 int) {
	t.Helper()
	n, k := u.Dims()
	_, m := v.Dims()
	exact := omega.Density() < DenseCutover
	where := fmt.Sprintf("density %.2f shape %dx%dx%d c0 %d weighted %v workers %d",
		omega.Density(), n, k, m, c0, w != nil, Workers())
	want := newSweepOracle(omega, rx, w, u, v)
	sw := omega.NewSweep(rx, w, k)

	if got := sw.Objective(u, v); sweepMismatch(got, want.obj, true) {
		t.Fatalf("%s: Objective %v, kernels %v", where, got, want.obj)
	}
	for i, g := range sw.uv.data {
		if sweepMismatch(g, want.uv.data[i], true) {
			t.Fatalf("%s: cached R_Ω(UV)[%d] %v, ProjectMul %v", where, i, g, want.uv.data[i])
		}
	}

	rows := make([]int, n)
	sw.UPass(u, v, func(i int, num, den []float64) {
		rows[i]++
		for t2 := 0; t2 < k; t2++ {
			if sweepMismatch(num[t2], want.numU.At(i, t2), exact) || sweepMismatch(den[t2], want.denU.At(i, t2), exact) {
				t.Errorf("%s: UPass row %d rank %d num/den %v/%v, MulBTObserved %v/%v",
					where, i, t2, num[t2], den[t2], want.numU.At(i, t2), want.denU.At(i, t2))
			}
		}
	})
	for i, c := range rows {
		if c != 1 {
			t.Fatalf("%s: UPass visited row %d %d times", where, i, c)
		}
	}

	cols := make([]int, m)
	sw.VPass(u, v, c0, func(j int, num, den []float64) {
		cols[j]++
		for t2 := 0; t2 < k; t2++ {
			if sweepMismatch(num[t2], want.numV.At(t2, j), true) || sweepMismatch(den[t2], want.denV.At(t2, j), true) {
				t.Errorf("%s: VPass col %d rank %d num/den %v/%v, MulAT %v/%v",
					where, j, t2, num[t2], den[t2], want.numV.At(t2, j), want.denV.At(t2, j))
			}
		}
	})
	for j, c := range cols {
		wantVisits := 0
		if j >= c0 {
			wantVisits = 1
		}
		if c != wantVisits {
			t.Fatalf("%s: VPass visited col %d %d times, want %d", where, j, c, wantVisits)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestSweepUPassReadsCache pins the reuse contract: UPass contracts the
// product the last Objective cached, not the factors it is handed, so a
// caller that changes U after Objective must call Objective again.
func TestSweepUPassReadsCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	omega := randomMask(rng, 20, 6, 0.6)
	rx := omega.Project(nil, RandomUniform(rng, 20, 6, 0, 1))
	u := RandomUniform(rng, 20, 3, 0, 1)
	v := RandomUniform(rng, 3, 6, 0, 1)
	sw := omega.NewSweep(rx, nil, 3)
	sw.Objective(u, v)
	scaled := Scale(nil, 1.5, u)
	want := omega.MulBTObserved(nil, omega.ProjectMul(nil, u, v), v)
	sw.UPass(scaled, v, func(i int, _, den []float64) {
		for t2, d := range den {
			if d != want.At(i, t2) {
				t.Errorf("UPass den(%d,%d) %v, want the cached product's %v", i, t2, d, want.At(i, t2))
			}
		}
	})
}
