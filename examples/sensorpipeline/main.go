// Sensorpipeline: the full deployment workflow on raw latitude/longitude
// telemetry — the scenario of the paper's Table I. Demonstrates:
//
//  1. geo.ProjectSI — degrees → local kilometers so Euclidean neighbor
//     search is metrically meaningful;
//  2. tune.Search — hyperparameter selection by validation masking;
//  3. confidence weighting — down-weighting a flaky sensor's column;
//  4. Model.CompleteRows — folding in rows that arrive after training.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/geo"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/metrics"
	"github.com/spatialmf/smfl/internal/tune"
)

func main() {
	// Raw telemetry in degrees around (45.31 N, 130.94 E) — Table I's region.
	rng := rand.New(rand.NewSource(3))
	res, err := dataset.Generate(dataset.Spec{
		Name: "telemetry", N: 600, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.03, Seed: 3, DominantShare: 0.6,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := res.Data
	// Re-express the generator's abstract coordinates as lat/lon degrees.
	n, m := ds.Dims()
	for i := 0; i < n; i++ {
		ds.X.Set(i, 0, 45.0+ds.X.At(i, 0)/200)  // latitude
		ds.X.Set(i, 1, 130.5+ds.X.At(i, 1)/140) // longitude
	}

	// 1. Project lat/lon to local kilometers before anything metric happens.
	proj, err := geo.ProjectSI(ds.X, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("projected %d rows around anchor (%.3f°, %.3f°)\n", n, proj.Lat0, proj.Lon0)

	if _, err := ds.Normalize(); err != nil {
		log.Fatal(err)
	}
	omega, err := dataset.InjectMissing(ds, dataset.MissingSpec{Rate: 0.15, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Pick K, λ, p by validation masking.
	base := core.Config{MaxIter: 150, Seed: 3}
	grid := tune.Grid{K: []int{4, 5}, Lambda: []float64{0.05, 0.1, 0.5}, P: []int{3, 5}}
	sr, err := tune.Search(ds.X, omega, ds.L, core.SMFL, base, grid, 0.15, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned: K=%d λ=%g p=%d (validation RMS %.4f over %d trials)\n",
		sr.Best.K, sr.Best.Lambda, sr.Best.P, sr.BestRMS, len(sr.Trials))

	// 3. The last column's sensor is flaky: give it half confidence.
	w := mat.NewDense(n, m)
	w.Fill(1)
	for i := 0; i < n; i++ {
		w.Set(i, m-1, 0.5)
	}
	cfg := sr.Best
	cfg.Weights = w
	xhat, model, err := core.Impute(ds.X, omega, ds.L, core.SMFL, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rms, err := metrics.RMSOverHidden(xhat, ds.X, omega)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weighted SMFL imputation RMS %.4f (%d iterations)\n", rms, model.Iters)

	// 4. New rows stream in after training: fold them in without refitting.
	fresh := mat.NewDense(5, m)
	for i := 0; i < 5; i++ {
		src := rng.Intn(n)
		copy(fresh.Row(i), ds.X.Row(src))
	}
	freshMask := mat.FullMask(5, m)
	for i := 0; i < 5; i++ {
		freshMask.Hide(i, m-1) // fuel readings missing on arrival
	}
	completed, err := model.CompleteRows(fresh, freshMask, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		fmt.Printf("streamed row %d: filled fuel = %.4f (true %.4f)\n",
			i, completed.At(i, m-1), fresh.At(i, m-1))
	}
}
