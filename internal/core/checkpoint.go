package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"github.com/spatialmf/smfl/internal/mat"
)

// Checkpoint format: a gob container wrapping the standard .smfl model
// payload (so a checkpoint is also a loadable model image) plus the trainer
// state that the model alone cannot reconstruct — the GD step scale and the
// watchdog's jitter-RNG state — and a hash binding the checkpoint to the
// exact (data, mask, weights, solver configuration) it was trained on.
// Everything else needed to continue (iteration index = Iters, objective
// history, landmarks, configuration) already travels inside the model
// payload. Files are written atomically: temp file in the target directory,
// fsync, rename, directory fsync — a crash at any instant leaves either the
// previous checkpoint or the new one, never a torn file.

// ckptMagic/ckptVersion identify the checkpoint container. Bump the version
// for incompatible layouts or hashes; gob tolerates appended fields.
// Version 2 hashes resident data as R_Ω(X), so version 1 files are refused.
const (
	ckptMagic   = "SMFL-CKPT"
	ckptVersion = 2
)

type checkpointWire struct {
	Magic     string
	Version   int
	Hash      uint64
	Model     []byte // core Save payload (wire v3: includes Partial, Recoveries)
	StepScale float64
	Jitter    uint64

	// Stochastic-updater state (appended fields; gob leaves them zero when
	// decoding checkpoints written before the stochastic updaters existed).
	// SampleState is the batch sampler's RNG position; AnchorU/AnchorV/GradV
	// and AnchorAge are the SVRG anchor snapshot (empty for SGD).
	SampleState uint64
	AnchorAge   int
	AnchorU     []byte
	AnchorV     []byte
	GradV       []byte
}

// Checkpoint is the decoded image of a training checkpoint.
type Checkpoint struct {
	Model     *Model
	Hash      uint64
	StepScale float64
	Jitter    uint64

	// Stochastic-updater state (zero/nil unless written by an SGD/SVRG fit).
	SampleState uint64
	AnchorAge   int
	AnchorU     *mat.Dense
	AnchorV     *mat.Dense
	GradV       *mat.Dense
}

// writeCheckpoint atomically persists the current trainer state.
func (tr *trainer) writeCheckpoint(model *Model) error {
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
	}
	wire := checkpointWire{
		Magic: ckptMagic, Version: ckptVersion, Hash: tr.hash,
		Model: buf.Bytes(), StepScale: tr.stepScale, Jitter: tr.jitter,
		SampleState: tr.sample, AnchorAge: tr.anchorAge,
	}
	if tr.anchorU != nil {
		var err error
		if wire.AnchorU, err = tr.anchorU.MarshalBinary(); err != nil {
			return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
		}
		if wire.AnchorV, err = tr.anchorV.MarshalBinary(); err != nil {
			return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
		}
		if wire.GradV, err = tr.gradV.MarshalBinary(); err != nil {
			return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
		}
	}
	if err := writeFileAtomic(tr.ckptPath, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(&wire)
	}); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint written during Fit. The
// embedded model passes the same hostile-input validation as a model file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var wire checkpointWire
	if err := gob.NewDecoder(f).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	if wire.Magic != ckptMagic {
		return nil, fmt.Errorf("core: %s is not a training checkpoint", path)
	}
	if wire.Version != ckptVersion {
		return nil, fmt.Errorf("core: checkpoint %s has unsupported version %d", path, wire.Version)
	}
	model, err := Load(bytes.NewReader(wire.Model))
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	ck := &Checkpoint{
		Model: model, Hash: wire.Hash, StepScale: wire.StepScale, Jitter: wire.Jitter,
		SampleState: wire.SampleState, AnchorAge: wire.AnchorAge,
	}
	if ck.StepScale <= 0 || math.IsNaN(ck.StepScale) || math.IsInf(ck.StepScale, 0) {
		return nil, fmt.Errorf("core: checkpoint %s has invalid step scale %v", path, ck.StepScale)
	}
	if ck.AnchorAge < 0 {
		return nil, fmt.Errorf("core: checkpoint %s has negative anchor age %d", path, ck.AnchorAge)
	}
	// SVRG anchor snapshot: all three blobs travel together, with the exact
	// factor shapes and finite entries (hostile-input parity with the model
	// payload itself).
	present := 0
	for _, b := range [][]byte{wire.AnchorU, wire.AnchorV, wire.GradV} {
		if len(b) > 0 {
			present++
		}
	}
	if present != 0 && present != 3 {
		return nil, fmt.Errorf("core: checkpoint %s has a torn anchor snapshot", path)
	}
	if present == 3 {
		ck.AnchorU, ck.AnchorV, ck.GradV = new(mat.Dense), new(mat.Dense), new(mat.Dense)
		for i, p := range []struct {
			blob []byte
			dst  *mat.Dense
		}{{wire.AnchorU, ck.AnchorU}, {wire.AnchorV, ck.AnchorV}, {wire.GradV, ck.GradV}} {
			if err := p.dst.UnmarshalBinary(p.blob); err != nil {
				return nil, fmt.Errorf("core: checkpoint %s anchor %d: %w", path, i, err)
			}
			if !p.dst.IsFinite() {
				return nil, fmt.Errorf("core: checkpoint %s anchor %d has non-finite entries", path, i)
			}
		}
		un, uk := model.U.Dims()
		vk, vm := model.V.Dims()
		if ar, ac := ck.AnchorU.Dims(); ar != un || ac != uk {
			return nil, fmt.Errorf("core: checkpoint %s anchor U is %dx%d, want %dx%d", path, ar, ac, un, uk)
		}
		if ar, ac := ck.AnchorV.Dims(); ar != vk || ac != vm {
			return nil, fmt.Errorf("core: checkpoint %s anchor V is %dx%d, want %dx%d", path, ar, ac, vk, vm)
		}
		if ar, ac := ck.GradV.Dims(); ar != vk || ac != vm {
			return nil, fmt.Errorf("core: checkpoint %s anchor gradient is %dx%d, want %dx%d", path, ar, ac, vk, vm)
		}
	}
	return ck, nil
}

// ResumeOptions carries the runtime-only inputs of a resumed fit — values
// that are intentionally not serialized into checkpoints. Everything else
// (hyperparameters, method, landmarks, iteration index, objective history)
// is restored from the checkpoint itself.
type ResumeOptions struct {
	// Ctx cancels the resumed fit, exactly like Config.Ctx on Fit.
	Ctx context.Context
	// Weights must be the same confidence-weight matrix the original Fit
	// ran with (it participates in the checkpoint hash), or nil.
	Weights *mat.Dense
	// MaxIter, when positive, replaces the checkpointed iteration cap —
	// the knob for "train a finished run for longer".
	MaxIter int
	// CheckpointPath redirects further checkpoints (default: the file being
	// resumed). CheckpointEvery, when positive, overrides the cadence.
	CheckpointPath  string
	CheckpointEvery int
}

// ResumeFit continues an interrupted Fit from the checkpoint at path,
// producing a trajectory bit-identical to the uninterrupted run: x and omega
// must be the exact training inputs over Ω (verified against the
// checkpoint's hash; hidden cells of x are never read), the spatial graph is
// rebuilt deterministically from them, and the factors, objective history,
// and watchdog RNG state are restored from the checkpoint. A checkpoint of a
// converged (or iteration-capped) run returns immediately unless opts raises
// MaxIter. ResumeFit checks its inputs as Fit does and resumes through
// ResumeFitSource.
func ResumeFit(path string, x *mat.Dense, omega *mat.Mask, opts *ResumeOptions) (*Model, error) {
	var weights *mat.Dense
	if opts != nil {
		weights = opts.Weights
	}
	src, err := newDenseSource(x, omega, weights)
	if err != nil {
		return nil, err
	}
	return ResumeFitSource(path, src, opts)
}

// resumeConfig overlays the runtime-only ResumeOptions onto the
// checkpointed configuration (defaults were applied by the original Fit)
// and installs the result on the model.
func resumeConfig(model *Model, path string, opts *ResumeOptions) Config {
	if opts == nil {
		opts = &ResumeOptions{}
	}
	cfg := model.Config
	cfg.Ctx = opts.Ctx
	cfg.Weights = opts.Weights
	if opts.MaxIter > 0 {
		cfg.MaxIter = opts.MaxIter
	}
	cfg.CheckpointPath = path
	if opts.CheckpointPath != "" {
		cfg.CheckpointPath = opts.CheckpointPath
	}
	if opts.CheckpointEvery > 0 {
		cfg.CheckpointEvery = opts.CheckpointEvery
	}
	model.Config = cfg
	return cfg
}

// resumedTrainer rebuilds the trainer state a checkpoint captured.
func resumedTrainer(ck *Checkpoint, method Method, cfg Config) *trainer {
	tr := newTrainer(method, cfg)
	tr.hash = ck.Hash
	tr.stepScale = ck.StepScale
	tr.jitter = ck.Jitter
	if cfg.Updater.Stochastic() {
		tr.sample = ck.SampleState
		tr.anchorU, tr.anchorV, tr.gradV = ck.AnchorU, ck.AnchorV, ck.GradV
		tr.anchorAge = ck.AnchorAge
	}
	return tr
}

// fitHash binds a checkpoint to its training run: FNV-1a over the source's
// ContentHash (R_Ω(X) and Ω), the confidence weights, and every
// configuration field that shapes the optimization trajectory. Runtime-only
// fields (Ctx, checkpoint/watchdog knobs) and MaxIter (legitimately raised on
// resume) are excluded.
func fitHash(src DataSource, method Method, l int, cfg Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	wi := func(v int64) { w64(uint64(v)) }

	wi(int64(method))
	wi(int64(l))
	n, m := src.Dims()
	wi(int64(n))
	wi(int64(m))
	w64(src.ContentHash())
	if cfg.Weights != nil {
		wi(1)
		for _, v := range cfg.Weights.Data() {
			wf(v)
		}
	}
	wi(int64(cfg.K))
	wf(cfg.Lambda)
	wi(int64(cfg.P))
	wf(cfg.Tol)
	wi(cfg.Seed)
	wi(int64(cfg.KMeansMaxIter))
	wi(int64(cfg.KMeansRestarts))
	wf(cfg.LearningRate)
	wf(cfg.Eps)
	wi(int64(cfg.Updater))
	wi(int64(cfg.BatchCells))
	wi(int64(cfg.AnchorEvery))
	wi(int64(cfg.LandmarkSource))
	wi(int64(cfg.SpatialIndex))
	return h.Sum64()
}
