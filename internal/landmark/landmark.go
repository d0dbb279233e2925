// Package landmark implements the sub-quadratic spatial path of the SMFL
// pipeline: a small set of L ≈ √N landmark rows stands in for the global
// geometry of the spatial information SI, exactly as the paper's landmark
// matrix C stands in for cluster structure.
//
// The subsystem has four parts. Selection (this file) picks L well-spread
// rows by k-means++ D² sampling followed by maxmin (farthest-point) filling.
// The Index (index.go) buckets every row under its nearest landmark and
// answers approximate p-NN queries by spiraling over small per-bucket grids
// in the few nearest buckets, emitting the same spatial.Graph CSR the exact
// path produces. The coreset (coreset.go) weights each landmark by its bucket
// population, so K-means for the landmark matrix C runs over L points. The
// Placer (placer.go) carries just the L-sized slices of that state, giving
// the serving path O(L) spatial placement for fold-in rows with no reference
// to any N-sized structure.
package landmark

import (
	"errors"
	"math"
	"math/rand"

	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/mat"
)

// DefaultProbes is how many nearest-landmark buckets a query scans. Probed
// buckets beyond the first are usually rejected wholesale by their bounding
// box once the running p-th-best distance tightens, so a handful of probes
// buys recall at little cost.
const DefaultProbes = 8

// Config controls landmark selection and index construction.
type Config struct {
	// Landmarks is L, the number of landmark rows; 0 means ⌈√N⌉.
	Landmarks int
	// MinLandmarks raises L to at least this value — the SMFL fit sets it
	// to K so the first K landmarks can double as the paper's landmark
	// columns in V.
	MinLandmarks int
	// Probes is the number of nearest-landmark buckets scanned per query;
	// 0 means DefaultProbes. Clamped to L.
	Probes int
	// SampleCap bounds the subsample the selection works on (selection is
	// O(sample·L·dim)); 0 means 8·L.
	SampleCap int
	// ScanBudget caps distance evaluations per p-NN query once p
	// candidates are held; 0 means max(4p, 40). Interior rows satisfy the
	// budget inside their own bucket's grid and never touch peer buckets,
	// while boundary rows spill over — the budget is what keeps graph
	// construction linear in N at a small constant.
	ScanBudget int
	// Seed drives selection.
	Seed int64
}

// withDefaults resolves zero fields against the row count n.
func (c Config) withDefaults(n int) Config {
	if c.Landmarks <= 0 {
		c.Landmarks = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if c.Landmarks < c.MinLandmarks {
		c.Landmarks = c.MinLandmarks
	}
	if c.Landmarks > n {
		c.Landmarks = n
	}
	if c.Landmarks < 1 {
		c.Landmarks = 1
	}
	if c.Probes <= 0 {
		c.Probes = DefaultProbes
	}
	if c.Probes > c.Landmarks {
		c.Probes = c.Landmarks
	}
	if c.SampleCap <= 0 {
		c.SampleCap = 8 * c.Landmarks
	}
	if c.SampleCap < c.Landmarks {
		c.SampleCap = c.Landmarks
	}
	return c
}

// Select returns L distinct row indices of si to use as landmarks. The
// first ⌈L/2⌉ come from k-means++ D² sampling (good coverage of dense
// regions), the rest from maxmin filling (coverage of extremes); both run
// over a seeded subsample so selection cost is independent of N beyond one
// pass. Selection order is meaningful: the prefix is the best-spread subset,
// which is what core reuses for the landmark matrix C.
func Select(si *mat.Dense, cfg Config) ([]int, error) {
	n, d := si.Dims()
	if n == 0 || d == 0 {
		return nil, errors.New("landmark: empty spatial information")
	}
	if !si.IsFinite() {
		return nil, errors.New("landmark: SI contains NaN or Inf; fill missing values first")
	}
	cfg = cfg.withDefaults(n)
	l := cfg.Landmarks
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Subsample without replacement.
	sample := rng.Perm(n)
	if len(sample) > cfg.SampleCap {
		sample = sample[:cfg.SampleCap]
	}
	s := len(sample)
	x := mat.NewDense(s, d)
	for i, row := range sample {
		copy(x.Row(i), si.Row(row))
	}
	sel := make([]int, 0, l)
	inSel := make([]bool, s)
	kpp := (l + 1) / 2
	if kpp > s {
		kpp = s
	}
	for _, j := range kmeans.SeedPlusPlusIndices(x, kpp, rng) {
		if !inSel[j] { // D² sampling repeats rows only on duplicate points
			inSel[j] = true
			sel = append(sel, j)
		}
	}
	// Maxmin fill: repeatedly take the point farthest from the selection.
	d2 := make([]float64, s)
	for i := 0; i < s; i++ {
		d2[i] = math.Inf(1)
		for _, j := range sel {
			if v := sqDist(x.Row(i), x.Row(j)); v < d2[i] {
				d2[i] = v
			}
		}
	}
	for len(sel) < l {
		pick, best := -1, -1.0
		for i := 0; i < s; i++ {
			if !inSel[i] && d2[i] > best {
				pick, best = i, d2[i]
			}
		}
		if pick < 0 {
			break // sample exhausted (duplicates collapsed it below l)
		}
		inSel[pick] = true
		sel = append(sel, pick)
		for i := 0; i < s; i++ {
			if v := sqDist(x.Row(i), x.Row(pick)); v < d2[i] {
				d2[i] = v
			}
		}
	}
	out := make([]int, len(sel))
	for i, j := range sel {
		out[i] = sample[j]
	}
	return out, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
