package core

// Storage-equivalence suite: a fit that streams rows from the out-of-core
// shard store must be Float64bits-identical to the in-memory fit of the same
// data — same factors, same objective history — for every method × stochastic
// updater combination, including checkpoint resume. The store is opened with
// a deliberately tiny memory budget and small shards so every epoch churns
// the LRU: bit-identity must survive constant mapping and eviction.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/store"
)

var _ DataSource = (*store.Store)(nil)

// storeFor lays (x, omega) out as a multi-shard store and opens it with a
// budget small enough to force eviction during training.
func storeFor(t *testing.T, x *mat.Dense, omega *mat.Mask) *store.Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data.smfs")
	if err := store.Write(dir, x, omega, store.WriteOptions{ShardRows: 16}); err != nil {
		t.Fatalf("store.Write: %v", err)
	}
	st, err := store.Open(dir, store.Config{MemBudget: 4096}) // ~3 of the 8 shards
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// stochStoreCfg is the shared stochastic configuration for the equivalence
// grid, mirroring the resume tests.
func stochStoreCfg(u Updater) Config {
	cfg := quickCfg(4)
	cfg.MaxIter = 25
	cfg.Tol = 1e-12
	cfg.Updater = u
	cfg.LearningRate = 5e-3
	cfg.BatchCells = 64
	cfg.AnchorEvery = 3
	return cfg
}

func TestStoreFitBitIdenticalToDense(t *testing.T) {
	x, omega, l := testProblem(t, 120, 9)
	for _, method := range []Method{NMF, SMF, SMFL} {
		for _, updater := range []Updater{SGD, SVRG} {
			t.Run(fmt.Sprintf("%v-%v", method, updater), func(t *testing.T) {
				cfg := stochStoreCfg(updater)
				dense, err := Fit(x, omega, l, method, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := storeFor(t, x, omega)
				ooc, err := FitSource(st, l, method, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, "U", dense.U, ooc.U)
				bitsEqual(t, "V", dense.V, ooc.V)
				if len(dense.Objective) != len(ooc.Objective) {
					t.Fatalf("objective history %d vs %d entries", len(dense.Objective), len(ooc.Objective))
				}
				for i := range dense.Objective {
					if dense.Objective[i] != ooc.Objective[i] {
						t.Fatalf("objective[%d]: %v vs %v", i, dense.Objective[i], ooc.Objective[i])
					}
				}
				if dense.Converged != ooc.Converged || dense.Iters != ooc.Iters {
					t.Fatalf("dense: %d iters converged=%v, store: %d iters converged=%v",
						dense.Iters, dense.Converged, ooc.Iters, ooc.Converged)
				}
				if stats := st.Stats(); stats.Evictions == 0 {
					t.Fatalf("budget never forced an eviction — the test exercised no LRU churn: %+v", stats)
				}
			})
		}
	}
}

// TestStoreResumeBitIdentical is TestResumeBitIdenticalTrajectory over the
// shard store: a source-backed fit stopped mid-run and resumed from its
// checkpoint must land exactly on the uninterrupted dense trajectory.
func TestStoreResumeBitIdentical(t *testing.T) {
	x, omega, l := testProblem(t, 120, 10)
	for _, tc := range []struct {
		method  Method
		updater Updater
	}{
		{NMF, SGD},
		{SMFL, SGD},
		{SMF, SVRG},
		{SMFL, SVRG},
	} {
		t.Run(fmt.Sprintf("%v-%v", tc.method, tc.updater), func(t *testing.T) {
			cfg := stochStoreCfg(tc.updater)
			full, err := Fit(x, omega, l, tc.method, cfg)
			if err != nil {
				t.Fatal(err)
			}

			st := storeFor(t, x, omega)
			ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
			short := cfg
			short.MaxIter = 17 // off the checkpoint cadence
			short.CheckpointPath = ckpt
			short.CheckpointEvery = 5
			if _, err := FitSource(st, l, tc.method, short); err != nil {
				t.Fatal(err)
			}

			resumed, err := ResumeFitSource(ckpt, st, &ResumeOptions{MaxIter: cfg.MaxIter})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Partial {
				t.Fatal("resumed model still tagged partial")
			}
			if resumed.Iters != full.Iters || resumed.Converged != full.Converged {
				t.Fatalf("resumed: %d iters converged=%v, dense uninterrupted: %d iters converged=%v",
					resumed.Iters, resumed.Converged, full.Iters, full.Converged)
			}
			bitsEqual(t, "U", full.U, resumed.U)
			bitsEqual(t, "V", full.V, resumed.V)
			for i := range full.Objective {
				if full.Objective[i] != resumed.Objective[i] {
					t.Fatalf("objective[%d]: %v vs %v", i, full.Objective[i], resumed.Objective[i])
				}
			}
		})
	}
}

// TestStoreResumeRejectsMismatch pins down the checkpoint-binding rules: a
// source checkpoint refuses different data, and the dense and source hash
// streams are disjoint so checkpoints can never cross storage backends.
func TestStoreResumeRejectsMismatch(t *testing.T) {
	x, omega, l := testProblem(t, 100, 11)
	cfg := stochStoreCfg(SGD)
	cfg.MaxIter = 8
	cfg.CheckpointEvery = 3

	st := storeFor(t, x, omega)
	srcCkpt := filepath.Join(t.TempDir(), "src.ckpt")
	srcCfg := cfg
	srcCfg.CheckpointPath = srcCkpt
	if _, err := FitSource(st, l, SMFL, srcCfg); err != nil {
		t.Fatal(err)
	}

	t.Run("different data refused", func(t *testing.T) {
		x2 := x.Clone()
		x2.Set(3, 3, x2.At(3, 3)*0.5)
		st2 := storeFor(t, x2, omega)
		if _, err := ResumeFitSource(srcCkpt, st2, nil); err == nil {
			t.Fatal("resume accepted a store with different contents")
		}
	})
	t.Run("dense resume of source checkpoint refused", func(t *testing.T) {
		if _, err := ResumeFit(srcCkpt, x, omega, nil); err == nil {
			t.Fatal("ResumeFit accepted a source-backed checkpoint")
		}
	})
	t.Run("source resume of dense checkpoint refused", func(t *testing.T) {
		denseCkpt := filepath.Join(t.TempDir(), "dense.ckpt")
		denseCfg := cfg
		denseCfg.CheckpointPath = denseCkpt
		if _, err := Fit(x, omega, l, SMFL, denseCfg); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeFitSource(denseCkpt, st, nil); err == nil {
			t.Fatal("ResumeFitSource accepted an in-memory checkpoint")
		}
	})
}

func TestFitSourceRejectsFullSweepUpdaters(t *testing.T) {
	x, omega, l := testProblem(t, 80, 12)
	st := storeFor(t, x, omega)
	for _, u := range []Updater{Multiplicative, GradientDescent} {
		cfg := quickCfg(4)
		cfg.Updater = u
		cfg.LearningRate = 5e-3
		if _, err := FitSource(st, l, SMFL, cfg); err == nil {
			t.Fatalf("FitSource accepted the full-sweep %v updater", u)
		}

		// Resuming a dense full-sweep checkpoint over the store is refused
		// for the updater, before (and independent of) the hash check.
		ckpt := filepath.Join(t.TempDir(), "dense.ckpt")
		cfg.MaxIter = 3
		cfg.CheckpointPath = ckpt
		if _, err := Fit(x, omega, l, SMFL, cfg); err != nil {
			t.Fatal(err)
		}
		_, err := ResumeFitSource(ckpt, st, nil)
		if err == nil || !strings.Contains(err.Error(), "supports sgd/svrg only") {
			t.Fatalf("ResumeFitSource of a %v checkpoint: got %v, want the sgd/svrg refusal", u, err)
		}
	}
}
