package serve

import (
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
)

// TestFallbackIgnoresMismatchedPlacer pins the degraded fallback to
// core.Model.WarmStartPlacer: a landmark-index model answers hidden cells
// from its placer, while a hand-built model whose placer disagrees with L
// or K answers from column means.
func TestFallbackIgnoresMismatchedPlacer(t *testing.T) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "fallback", N: 200, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	x := res.Data.X
	n, cols := x.Dims()
	model, err := core.Fit(x, nil, 2, core.SMFL, core.Config{
		K: 4, Lambda: 0.1, MaxIter: 30, Seed: 51, SpatialIndex: core.SpatialLandmark,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := x.Slice(0, 3, 0, cols).Clone()
	mask := mat.FullMask(3, cols)
	for i := 0; i < 3; i++ {
		mask.Hide(i, 4)
	}
	if f := newFallback(model); f.placer == nil {
		t.Fatal("landmark-index model: fallback dropped its placer")
	} else if _, source := f.complete(rows, mask, true); source != "placer" {
		t.Fatalf("landmark-index model answered from %q", source)
	}

	ix, err := landmark.Build(x.Slice(0, n, 0, 2), landmark.Config{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ix.NewPlacer(mat.RandomUniform(rand.New(rand.NewSource(51)), n, 5, 1e-3, 1))
	if err != nil {
		t.Fatal(err)
	}
	with := func(l int, p *landmark.Placer) *core.Model {
		return &core.Model{Method: model.Method, Config: model.Config, L: l,
			U: model.U, V: model.V, C: model.C, Placer: p}
	}
	cases := map[string]*core.Model{
		"L": with(1, model.Placer),
		"K": with(2, wide),
	}
	for name, m := range cases {
		f := newFallback(m)
		if f.placer != nil {
			t.Fatalf("placer disagreeing with %s kept by the fallback", name)
		}
		if _, source := f.complete(rows, mask, true); source != "means" {
			t.Fatalf("placer disagreeing with %s: answered from %q", name, source)
		}
	}
}
