package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// bitsEqual compares two matrices entry-wise at the float64 bit level —
// "bit-identical resume" means exactly this, not approximate equality.
func bitsEqual(t *testing.T, name string, a, b *mat.Dense) {
	t.Helper()
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		t.Fatalf("%s: shapes %dx%d vs %dx%d", name, ar, ac, br, bc)
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("%s: entry %d differs: %v vs %v", name, i, ad[i], bd[i])
		}
	}
}

// TestResumeBitIdenticalTrajectory is the kill-and-resume acceptance test:
// for every method (and both updaters for the spatial ones), a fit stopped
// at an intermediate iteration and resumed from its checkpoint must land on
// exactly the factors, objective history, and convergence flag of the
// uninterrupted run.
func TestResumeBitIdenticalTrajectory(t *testing.T) {
	x, omega, l := testProblem(t, 120, 7)
	cases := []struct {
		method  Method
		updater Updater
	}{
		{NMF, Multiplicative},
		{SMF, Multiplicative},
		{SMF, GradientDescent},
		{SMFL, Multiplicative},
		{SMFL, GradientDescent},
		{NMF, SGD},
		{SMFL, SGD},
		{NMF, SVRG},
		{SMFL, SVRG},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v-%v", tc.method, tc.updater), func(t *testing.T) {
			cfg := quickCfg(4)
			cfg.MaxIter = 40
			cfg.Tol = 1e-12 // keep both runs iterating the full horizon
			cfg.Updater = tc.updater
			if tc.updater != Multiplicative {
				cfg.LearningRate = 5e-3
			}
			if tc.updater.Stochastic() {
				cfg.BatchCells = 64 // several batches per epoch at this size
				cfg.AnchorEvery = 3 // refreshes land on and off checkpoints
			}

			full, err := Fit(x, omega, l, tc.method, cfg)
			if err != nil {
				t.Fatal(err)
			}

			ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
			short := cfg
			short.MaxIter = 17 // stop mid-run, off the checkpoint cadence
			short.CheckpointPath = ckpt
			short.CheckpointEvery = 5
			partial, err := Fit(x, omega, l, tc.method, short)
			if err != nil {
				t.Fatal(err)
			}
			if partial.Iters != 17 {
				t.Fatalf("short run stopped at %d iterations, want 17", partial.Iters)
			}

			resumed, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: cfg.MaxIter})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Partial {
				t.Fatal("resumed model still tagged partial")
			}
			if resumed.Iters != full.Iters || resumed.Converged != full.Converged {
				t.Fatalf("resumed run: %d iters converged=%v, uninterrupted: %d iters converged=%v",
					resumed.Iters, resumed.Converged, full.Iters, full.Converged)
			}
			bitsEqual(t, "U", full.U, resumed.U)
			bitsEqual(t, "V", full.V, resumed.V)
			if len(resumed.Objective) != len(full.Objective) {
				t.Fatalf("objective history %d vs %d entries", len(resumed.Objective), len(full.Objective))
			}
			for i := range full.Objective {
				if full.Objective[i] != resumed.Objective[i] {
					t.Fatalf("objective[%d]: %v vs %v", i, full.Objective[i], resumed.Objective[i])
				}
			}
		})
	}
}

// TestCancelWritesResumableCheckpoint covers the Ctrl-C path: a context
// cancelled mid-fit returns the best-so-far model (tagged partial, with
// ErrInterrupted) after writing a final checkpoint, and resuming that
// checkpoint reproduces the uninterrupted run bit-for-bit.
func TestCancelWritesResumableCheckpoint(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 110, 8)
	cfg := quickCfg(4)
	cfg.MaxIter = 30
	cfg.Tol = 1e-12

	full, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel deterministically: the hook pulls the trigger at iteration 9, so
	// the interrupted check at the top of iteration 10 stops the fit with
	// exactly 10 committed iterations.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Enable(faultinject.FitIter, func(p any) error {
		if p.(*FitFault).Iter == 9 {
			cancel()
		}
		return nil
	})

	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	interrupted := cfg
	interrupted.Ctx = ctx
	interrupted.CheckpointPath = ckpt
	interrupted.CheckpointEvery = 1000 // only the forced on-cancel write
	model, err := Fit(x, omega, l, SMFL, interrupted)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled fit returned %v, want ErrInterrupted", err)
	}
	if model == nil || !model.Partial {
		t.Fatal("cancelled fit must return the best-so-far model tagged partial")
	}
	if model.Iters != 10 {
		t.Fatalf("cancelled at %d committed iterations, want 10", model.Iters)
	}
	faultinject.Reset()

	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Model.Iters != 10 {
		t.Fatalf("checkpoint holds %d iterations, want 10 (zero loss on cancel)", ck.Model.Iters)
	}

	resumed, err := ResumeFit(ckpt, x, omega, nil)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "U", full.U, resumed.U)
	bitsEqual(t, "V", full.V, resumed.V)
}

// TestCheckpointCrashLeavesPreviousLoadable injects a crash in the window
// between the checkpoint temp-file write and the rename: the previous
// checkpoint must survive intact and loadable.
func TestCheckpointCrashLeavesPreviousLoadable(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 100, 9)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	cfg := quickCfg(4)
	cfg.MaxIter = 30
	cfg.Tol = 1e-12
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 5

	// The second checkpoint write (iteration 10) dies between write and
	// rename; the first (iteration 5) must remain the published file.
	crash := errors.New("simulated crash before rename")
	faultinject.Enable(faultinject.PersistRename, faultinject.OnCall(2, faultinject.Fail(crash)))

	model, err := Fit(x, omega, l, SMF, cfg)
	if !errors.Is(err, crash) {
		t.Fatalf("fit returned %v, want the injected crash", err)
	}
	if model == nil || !model.Partial {
		t.Fatal("a fit killed by checkpoint failure must return the partial model")
	}
	faultinject.Reset()

	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("previous checkpoint did not survive the crash: %v", err)
	}
	if ck.Model.Iters != 5 {
		t.Fatalf("surviving checkpoint holds %d iterations, want 5", ck.Model.Iters)
	}
	if _, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: 30}); err != nil {
		t.Fatalf("resume from surviving checkpoint: %v", err)
	}
}

// TestResumeRejectsMismatchedRun guards the hash binding: a checkpoint must
// refuse to resume against different data, weights, or solver configuration.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	x, omega, l := testProblem(t, 100, 10)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	cfg := quickCfg(4)
	cfg.MaxIter = 8
	cfg.Tol = 1e-12
	cfg.CheckpointPath = ckpt
	if _, err := Fit(x, omega, l, SMFL, cfg); err != nil {
		t.Fatal(err)
	}

	// Different data (same shape).
	x2 := x.Clone()
	x2.Set(3, 3, x2.At(3, 3)+0.25)
	if _, err := ResumeFit(ckpt, x2, omega, &ResumeOptions{MaxIter: 20}); err == nil {
		t.Fatal("resume accepted different data")
	}

	// Different weights.
	w := mat.NewDense(100, 6)
	for i := range w.Data() {
		w.Data()[i] = 1
	}
	w.Set(0, 0, 2)
	if _, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: 20, Weights: w}); err == nil {
		t.Fatal("resume accepted different weights")
	}

	// Different shape.
	if _, err := ResumeFit(ckpt, x.Slice(0, 50, 0, 6), nil, nil); err == nil {
		t.Fatal("resume accepted a differently-shaped matrix")
	}

	// The hash binds R_Ω(X), the data the fit reads (as the store's
	// zero-filled shards do): a change confined to a hidden cell resumes,
	// the same change in an observed cell is refused.
	for _, observed := range []bool{false, true} {
		x3 := x.Clone()
		n, m := x.Dims()
		changed := false
		for c := 0; c < n*m && !changed; c++ {
			if i, j := c/m, c%m; omega.Observed(i, j) == observed {
				x3.Set(i, j, x3.At(i, j)+0.25)
				changed = true
			}
		}
		if !changed {
			t.Fatalf("test problem has no cell with observed=%v", observed)
		}
		opts := &ResumeOptions{MaxIter: 20, CheckpointPath: filepath.Join(t.TempDir(), "resumed.ckpt")}
		_, err := ResumeFit(ckpt, x3, omega, opts)
		if observed && err == nil {
			t.Fatal("resume accepted a change in an observed cell")
		}
		if !observed && err != nil {
			t.Fatalf("resume refused a change confined to a hidden cell: %v", err)
		}
	}
}

// TestLoadCheckpointRejectsHostileFiles mirrors the model-file validation:
// garbage, wrong magic, and torn payloads must all be refused cleanly.
func TestLoadCheckpointRejectsHostileFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("accepted garbage")
	}

	// A valid model file is not a checkpoint.
	x, omega, l := testProblem(t, 60, 11)
	cfg := quickCfg(3)
	cfg.MaxIter = 4
	model, err := Fit(x, omega, l, NMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	modelFile := filepath.Join(dir, "model.smfl")
	if err := model.SaveFile(modelFile); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(modelFile); err == nil {
		t.Fatal("accepted a plain model file as a checkpoint")
	}

	// Truncation of a real checkpoint.
	ckpt := filepath.Join(dir, "fit.ckpt")
	cfg.CheckpointPath = ckpt
	if _, err := Fit(x, omega, l, NMF, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// A checkpoint of the previous format version: its hash was computed
	// differently, so it must be refused by name, not misread.
	var wire checkpointWire
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	wire.Version = ckptVersion - 1
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(dir, "old.ckpt")
	if err := os.WriteFile(oldPath, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(oldPath)
	if want := fmt.Sprintf("version %d", ckptVersion-1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("old checkpoint: got %v, want an error naming %q", err, want)
	}

	if err := os.WriteFile(ckpt, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(ckpt); err == nil {
		t.Fatal("accepted a torn checkpoint")
	}
}

// TestResumeFinishedRunReturnsImmediately: resuming a checkpoint of a
// completed run is a no-op unless MaxIter is raised.
func TestResumeFinishedRunReturnsImmediately(t *testing.T) {
	x, omega, l := testProblem(t, 80, 12)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	cfg := quickCfg(3)
	cfg.MaxIter = 6
	cfg.Tol = 1e-12
	cfg.CheckpointPath = ckpt
	model, err := Fit(x, omega, l, SMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same, err := ResumeFit(ckpt, x, omega, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same.Iters != model.Iters {
		t.Fatalf("no-op resume ran %d extra iterations", same.Iters-model.Iters)
	}
	longer, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: 12})
	if err != nil {
		t.Fatal(err)
	}
	if longer.Iters <= model.Iters {
		t.Fatalf("raised MaxIter did not extend the run (%d iters)", longer.Iters)
	}
}
