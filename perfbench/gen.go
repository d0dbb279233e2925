package main

import (
	"encoding/json"
	"math/rand"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

// tableSeed fixes the generated tables, serve-point's held-out split and
// every fit's random start (Config.Seed, which is also smfl's -seed
// default). The tables play the part of the paper's fixed datasets and the
// served model that of a deployed artifact; the run's seed draws the
// hidden cells and the requests. A fit's random start moves its RMS by
// up to 20% on fit-paper, the hidden cells by about 1%, so runs under
// different seeds stay comparable.
const tableSeed = 1

// table is a generated training table in normalized units. The program
// under test sees only x and mask; truth is the generator's ground truth
// for scoring the hidden cells.
type table struct {
	x     *mat.Dense // observed cells; hidden cells are 0
	mask  *mat.Mask
	truth *mat.Dense
	l     int
}

func newTable(res *dataset.SynthResult, rate float64, seed int64) (*table, error) {
	if _, err := res.Data.Normalize(); err != nil {
		return nil, err
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: rate, Seed: seed})
	if err != nil {
		return nil, err
	}
	truth := res.Data.X
	return &table{x: mask.Project(nil, truth), mask: mask, truth: truth, l: res.Data.L}, nil
}

// paperTable is fit-paper's input: the Vehicle generator at scale 0.1
// (10 000×7, L=2) with half of the non-SI cells hidden.
func paperTable(seed int64) (*table, error) {
	res, err := dataset.Vehicle(0.1, tableSeed)
	if err != nil {
		return nil, err
	}
	return newTable(res, 0.5, seed)
}

// outOfCoreTable is the out-of-core layer's input: the 20 000×50 synthetic table
// with 90% of the non-SI cells hidden, as `smflbench -store` builds it.
func outOfCoreTable(seed int64) (*table, error) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "Synthetic", N: 20000, M: 50, L: 2,
		Latents: 5, Bumps: 8, Clusters: 6, Noise: 0.2, Private: 0.3, Seed: tableSeed,
	})
	if err != nil {
		return nil, err
	}
	return newTable(res, 0.9, seed)
}

// serveTables splits a Vehicle scale-0.05 table into a fully observed
// training table (80% of the rows, split by tableSeed) and the held-out rows in
// original units. The normalizer spans the whole table, so every held-out
// row is within the range the served model accepts.
func serveTables() (train *table, heldOut *mat.Dense, norm *dataset.Normalizer, err error) {
	res, err := dataset.Vehicle(0.05, tableSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	raw := res.Data.X
	norm, err = dataset.FitNormalizer(raw, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	n, m := raw.Dims()
	perm := rand.New(rand.NewSource(tableSeed)).Perm(n)
	nTrain := n * 8 / 10
	x := mat.NewDense(nTrain, m)
	heldOut = mat.NewDense(n-nTrain, m)
	for i, p := range perm {
		if i < nTrain {
			copy(x.Row(i), raw.Row(p))
		} else {
			copy(heldOut.Row(i-nTrain), raw.Row(p))
		}
	}
	norm.Apply(x)
	return &table{x: x, mask: mat.FullMask(nTrain, m), truth: x, l: res.Data.L}, heldOut, norm, nil
}

// request is one impute call: a row with one hidden non-SI cell, the
// ground truth of that row, and the JSON body sent.
type request struct {
	rows  *mat.Dense // 1×m; the hidden cell holds 0
	mask  *mat.Mask
	truth *mat.Dense
	body  []byte
}

// makeRequests builds a pool of count one-row requests from the rows of
// src, each hiding a distinct (row, non-SI column) cell, in seeded order.
// count 0 takes every such cell, so the pool's RMS is over the same cells
// whatever the seed.
func makeRequests(src *mat.Dense, l, count int, seed int64) ([]*request, error) {
	n, m := src.Dims()
	w := m - l // hideable columns
	if count == 0 {
		count = n * w
	}
	cells := rand.New(rand.NewSource(seed)).Perm(n * w)[:count]
	reqs := make([]*request, count)
	for q, c := range cells {
		p, hide := c/w, l+c%w
		req := &request{rows: mat.NewDense(1, m), mask: mat.FullMask(1, m), truth: src.Slice(p, p+1, 0, m)}
		req.mask.Hide(0, hide)
		row := make([]*float64, m)
		for j := 0; j < m; j++ {
			if j == hide {
				continue
			}
			v := src.At(p, j)
			req.rows.Set(0, j, v)
			row[j] = &v
		}
		b, err := json.Marshal(map[string]any{"rows": [][]*float64{row}})
		if err != nil {
			return nil, err
		}
		req.body = b
		reqs[q] = req
	}
	return reqs, nil
}
