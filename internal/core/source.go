package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// DataSource is what a fit needs from its training data: row-wise access to
// (X, Ω) through the mat.RowSource seam plus a stable content fingerprint
// for checkpoint binding. *store.Store implements it for out-of-core data;
// Fit and ResumeFit wrap their resident inputs in one (denseSource). core
// deliberately depends only on this interface, never on the store package.
type DataSource interface {
	mat.RowSource
	// ContentHash is a stable fingerprint of the observed data R_Ω(X) and
	// the mask Ω. Checkpoints embed it (via fitHash), so resume refuses a
	// source whose contents changed.
	ContentHash() uint64
}

// denseSource is the resident (R_Ω(X), Ω) pair behind Fit and ResumeFit.
// Hidden cells read 0, exactly as they do in a shard of the store, and the
// full-sweep updaters find the pair by a type check (sweepable).
type denseSource struct {
	*mat.DenseSource
	rx    *mat.Dense
	omega *mat.Mask
}

// newDenseSource checks a resident fit input — shapes, finite and
// nonnegative observed entries, finite nonnegative weights — and projects
// it once to R_Ω(X). A nil omega means fully observed.
func newDenseSource(x *mat.Dense, omega *mat.Mask, weights *mat.Dense) (*denseSource, error) {
	n, m := x.Dims()
	if omega == nil {
		omega = mat.FullMask(n, m)
	}
	if or, oc := omega.Dims(); or != n || oc != m {
		return nil, fmt.Errorf("core: mask shape %dx%d vs data %dx%d", or, oc, n, m)
	}
	rx := omega.Project(nil, x)
	if !rx.IsFinite() {
		return nil, errors.New("core: observed entries contain NaN or Inf")
	}
	if mat.Min(rx) < 0 {
		return nil, errors.New("core: observed entries must be nonnegative (min-max normalize first)")
	}
	if weights != nil {
		if wr, wc := weights.Dims(); wr != n || wc != m {
			return nil, fmt.Errorf("core: weights shape %dx%d vs data %dx%d", wr, wc, n, m)
		}
		if !weights.IsFinite() || mat.Min(weights) < 0 {
			return nil, errors.New("core: weights must be finite and nonnegative")
		}
	}
	return &denseSource{DenseSource: mat.NewDenseSource(rx, omega), rx: rx, omega: omega}, nil
}

// ContentHash implements DataSource: FNV-1a over a tag, R_Ω(X) and Ω.
func (s *denseSource) ContentHash() uint64 {
	h := fnv.New64a()
	h.Write([]byte("SMFL-DENSE"))
	var buf [8]byte
	for _, v := range s.rx.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if b, err := s.omega.MarshalBinary(); err == nil {
		h.Write(b)
	}
	return h.Sum64()
}

// sweepable reports whether updater u can train on src: the full-sweep
// updaters need the resident pair only a denseSource holds.
func sweepable(src DataSource, u Updater) bool {
	_, resident := src.(*denseSource)
	return resident || u.Stochastic()
}

// FitSource is Fit over any DataSource; Fit itself is this pipeline over
// its validated resident inputs. An out-of-core source supports only the
// stochastic updaters (SGD, SVRG): the full-sweep multiplicative and
// gradient-descent updaters need resident N×M intermediates and should fit
// from memory. Given identical data, a store-backed trajectory is
// Float64bits-identical to the Fit trajectory — same seed, same chunk
// partition, same arithmetic order.
//
// Input validation (finite, nonnegative observed entries) happened when the
// store was written and is re-verified shard-by-shard at store.Open, so the
// full data is never materialized here: transient memory is O(N) for the
// row pointer and SI block, plus the factors.
func FitSource(src DataSource, l int, method Method, cfg Config) (*Model, error) {
	n, m := src.Dims()
	if n == 0 || m == 0 {
		return nil, errors.New("core: empty input matrix")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(n, m, l, method); err != nil {
		return nil, err
	}
	if !sweepable(src, cfg.Updater) {
		return nil, fmt.Errorf("core: source-backed fits support the stochastic updaters only (sgd, svrg), got %s — fit from memory for %s", cfg.Updater, cfg.Updater)
	}

	// Spatial structure (SMF and SMFL only).
	var graph *spatial.Graph
	var ix *landmark.Index
	var si *mat.Dense
	if method != NMF {
		si = siFilled(src, l)
		var err error
		graph, ix, err = buildSpatial(si, method, cfg)
		if err != nil {
			return nil, err
		}
	}

	// Landmarks (SMFL only). Under the landmark index with the paper's
	// K-means source, C comes from weighted K-means over the index's
	// landmark coreset (landmark coordinates weighted by bucket population)
	// instead of a second full pass over N — one landmark set serves both
	// the spatial index and the landmark columns of V.
	c, err := landmarksFor(si, ix, method, cfg)
	if err != nil {
		return nil, err
	}

	model := &Model{Method: method, Config: cfg, L: l, C: c}
	initFactors(model, n, m)
	if c != nil {
		injectLandmarks(model.V, c)
	}

	tr := newTrainer(method, cfg)
	if tr.ckptPath != "" {
		tr.hash = fitHash(src, method, l, cfg)
	}
	tr.begin(model)
	return runFit(model, tr, src, graph, ix)
}

// ResumeFitSource continues a checkpointed fit over src, with the
// bit-identical-trajectory contract of ResumeFit: src must hold the exact
// training data (verified against the checkpoint's hash). A checkpoint of a
// full-sweep fit is refused for an out-of-core source before any hashing.
func ResumeFitSource(path string, src DataSource, opts *ResumeOptions) (*Model, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	model := ck.Model
	cfg := resumeConfig(model, path, opts)
	if !sweepable(src, cfg.Updater) {
		return nil, fmt.Errorf("core: checkpoint %s was written by a %s fit; source-backed resume supports sgd/svrg only", path, cfg.Updater)
	}

	n, m := src.Dims()
	if un, _ := model.U.Dims(); un != n {
		return nil, fmt.Errorf("core: resume: checkpoint has %d rows, data has %d", un, n)
	}
	if _, vm := model.V.Dims(); vm != m {
		return nil, fmt.Errorf("core: resume: checkpoint has %d columns, data has %d", vm, m)
	}
	if h := fitHash(src, model.Method, model.L, cfg); h != ck.Hash {
		return nil, fmt.Errorf("core: checkpoint %s was written for different data, weights or configuration", path)
	}

	model.Partial = false
	if model.Converged || model.Iters >= cfg.MaxIter {
		return model, nil
	}

	var graph *spatial.Graph
	var ix *landmark.Index
	if model.Method != NMF {
		si := siFilled(src, model.L)
		if graph, ix, err = buildSpatial(si, model.Method, cfg); err != nil {
			return nil, err
		}
	}
	tr := resumedTrainer(ck, model.Method, cfg)
	tr.begin(model)
	return runFit(model, tr, src, graph, ix)
}
