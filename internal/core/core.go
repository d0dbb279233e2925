// Package core implements the paper's contribution: Spatial Matrix
// Factorization with Landmarks (SMFL), together with the SMF and masked-NMF
// family it builds upon and the gradient-descent variant used in the
// ablation study.
//
// The optimization problem (Problem 2 of the paper) is
//
//	min_{U,V}  ‖R_Ω(X − UV)‖²_F + λ Tr(UᵀLU)
//	s.t.       v_kj = c_kj for (k,j) ∈ Φ,   u_ij, v_ij ≥ 0
//
// where L is the graph Laplacian of the p-NN similarity graph over the
// spatial information SI (the first L columns of X), and C holds the K-means
// centers of SI — the landmarks that pin the spatial coordinates of the
// learned features. The default solver is the multiplicative updating method
// of Formulas 13/14, whose objective is provably non-increasing
// (Propositions 5 and 7); see the convergence property tests.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
)

// ErrInterrupted tags the error returned when Config.Ctx cancels a running
// Fit, ResumeFit or FoldIn. The partial result is still returned alongside
// it: Fit hands back the best-so-far model with Partial set (checkpointed
// first when checkpointing is configured), FoldIn the coefficients computed
// so far. Callers distinguish interruption from failure with
// errors.Is(err, ErrInterrupted).
var ErrInterrupted = errors.New("core: interrupted")

// DivergenceError is the classified error returned when the divergence
// watchdog exhausts its retries: every rollback-and-retry of the same
// iteration diverged again. The model returned with it holds the last
// numerically healthy state, tagged Partial.
type DivergenceError struct {
	Method  Method
	Updater Updater
	Iter    int    // iteration that kept diverging (0-based)
	Retries int    // consecutive recoveries attempted before giving up
	Reason  string // what tripped the watchdog on the final attempt
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("core: %s/%v diverged at iteration %d (%s) after %d recovery attempts",
		e.Method, e.Updater, e.Iter, e.Reason, e.Retries)
}

// Method selects which member of the model family to fit.
type Method int

const (
	// NMF is masked nonnegative matrix factorization (Formula 5): no
	// spatial regularization, no landmarks.
	NMF Method = iota
	// SMF adds graph-Laplacian spatial regularization (Problem 1).
	SMF
	// SMFL adds K-means landmarks frozen into the first L columns of V
	// (Problem 2) — the paper's proposal.
	SMFL
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case NMF:
		return "NMF"
	case SMF:
		return "SMF"
	case SMFL:
		return "SMFL"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Updater selects the optimization scheme.
type Updater int

const (
	// Multiplicative is the self-adaptive scheme of Formulas 13/14 (default).
	Multiplicative Updater = iota
	// GradientDescent is the fixed-learning-rate scheme of Section III-B1,
	// kept for the SMF-GD comparison in Fig. 5.
	GradientDescent
	// SGD is the stochastic mini-batch variant of GradientDescent: each
	// epoch visits Ω once in seed-shuffled row blocks of about
	// Config.BatchCells observed cells, updating V after every batch
	// instead of once per sweep. Spatial/landmark terms and the objective
	// are evaluated per epoch.
	SGD
	// SVRG is SGD with variance-reduced V-gradients: batch directions are
	// corrected against a periodically refreshed anchor's full gradient
	// (after "A Unified Framework for Stochastic Matrix Factorization via
	// Variance Reduction"), trading one full |Ω| pass every
	// Config.AnchorEvery epochs for near-full-gradient update quality.
	SVRG
)

// String implements fmt.Stringer with the flag spellings.
func (u Updater) String() string {
	switch u {
	case Multiplicative:
		return "multiplicative"
	case GradientDescent:
		return "gd"
	case SGD:
		return "sgd"
	case SVRG:
		return "svrg"
	}
	return fmt.Sprintf("Updater(%d)", int(u))
}

// ParseUpdater maps the flag spellings onto the enum.
func ParseUpdater(s string) (Updater, error) {
	switch s {
	case "multiplicative", "mult":
		return Multiplicative, nil
	case "gd":
		return GradientDescent, nil
	case "sgd":
		return SGD, nil
	case "svrg":
		return SVRG, nil
	}
	return 0, fmt.Errorf("core: unknown updater %q (want multiplicative, gd, sgd or svrg)", s)
}

// Stochastic reports whether the updater trains on sampled mini-batches
// (and therefore carries sampler/anchor state through checkpoints).
func (u Updater) Stochastic() bool { return u == SGD || u == SVRG }

// LandmarkSource selects how landmark values C are generated (ablation A3;
// the paper uses KMeansCenters).
type LandmarkSource int

const (
	// KMeansCenters sets C to the K-means cluster centers of SI (the paper's
	// choice, Section III-A).
	KMeansCenters LandmarkSource = iota
	// RandomObservations samples K observed SI rows as landmarks.
	RandomObservations
	// UniformGrid lays landmarks on a near-square grid over the SI bounding
	// box, ignoring where the data actually sits.
	UniformGrid
)

// SpatialIndex selects the backend that turns the SI block into the p-NN
// similarity graph of Formula 3 (and, under SMFL, sources the landmark
// matrix C).
type SpatialIndex int

const (
	// SpatialExact computes exact p-NN lists over all N rows with the
	// KD-tree backend. The default.
	SpatialExact SpatialIndex = iota
	// SpatialLandmark routes graph construction through the sub-quadratic
	// landmark-bucket index (internal/landmark): ⌈√N⌉ landmark rows bucket
	// the data, candidate generation searches only rows sharing nearby
	// landmarks, and the fitted model carries an O(L) Placer so fold-in
	// rows get spatial context without touching any N-sized structure.
	SpatialLandmark
)

// String implements fmt.Stringer with the flag spellings.
func (s SpatialIndex) String() string {
	switch s {
	case SpatialExact:
		return "exact"
	case SpatialLandmark:
		return "landmark"
	}
	return fmt.Sprintf("SpatialIndex(%d)", int(s))
}

// ParseSpatialIndex maps the flag spellings onto the enum.
func ParseSpatialIndex(s string) (SpatialIndex, error) {
	switch s {
	case "exact":
		return SpatialExact, nil
	case "landmark":
		return SpatialLandmark, nil
	}
	return 0, fmt.Errorf("core: unknown spatial index %q (want exact or landmark)", s)
}

// Config holds the hyperparameters of the model family. Zero values are
// replaced by paper defaults in (*Config).withDefaults.
type Config struct {
	K       int     // latent features = number of landmarks (default 10)
	Lambda  float64 // spatial regularization weight λ (default 0.1)
	P       int     // spatial nearest neighbors p for D (default 3)
	MaxIter int     // update iterations t₁ (default 500)
	Tol     float64 // relative objective-change early-stop (default 1e-5)
	Seed    int64   // RNG seed for inits, K-means, landmark sampling

	KMeansMaxIter  int     // t₂ (default 300)
	KMeansRestarts int     // default 1
	LearningRate   float64 // GD only (default 1e-3)
	Eps            float64 // denominator guard (default 1e-12)

	Updater Updater
	// BatchCells is the target number of observed cells per mini-batch for
	// the stochastic updaters (default 32768). Batches are whole rows cut
	// from a per-epoch shuffled permutation, so actual batch sizes float
	// slightly above the target.
	BatchCells int
	// AnchorEvery is the SVRG anchor cadence in epochs: the anchor factors
	// and their full V-gradient are re-snapshotted every AnchorEvery
	// committed epochs (default 2).
	AnchorEvery    int
	LandmarkSource LandmarkSource
	// SpatialIndex picks the spatial backend (exact by default). With
	// SpatialLandmark, SMFL reuses the index's landmark selection for C
	// (when LandmarkSource is KMeansCenters), and the fitted model gains a
	// Placer for O(L) fold-in placement.
	SpatialIndex SpatialIndex

	// FoldInTol is the per-row relative objective-change tolerance that
	// freezes a converged row in batched FoldIn (default 1e-8, the value
	// previously hardcoded).
	FoldInTol float64

	// Ctx, when non-nil, makes Fit/ResumeFit/FoldIn cancellable: on
	// cancellation or deadline the call stops at the next iteration boundary
	// and returns the best-so-far result together with an error wrapping
	// ErrInterrupted (and writes a final checkpoint first when checkpointing
	// is configured). Ctx is runtime-only state: it is never serialized and
	// does not participate in the checkpoint configuration hash.
	Ctx context.Context

	// CheckpointPath, when non-empty, makes Fit write an atomic checkpoint
	// (temp file + fsync + rename) every CheckpointEvery iterations, on
	// convergence, and on cancellation. ResumeFit restores the run from it
	// with a bit-identical trajectory. CheckpointEvery defaults to 25.
	CheckpointPath  string
	CheckpointEvery int

	// WatchdogRetries bounds the consecutive rollback-and-retry recoveries
	// the divergence watchdog attempts before returning a DivergenceError
	// (default 5). Set to -1 to disable the watchdog entirely (the pre-
	// watchdog behavior: NaN/Inf silently poison the run).
	WatchdogRetries int
	// WatchdogExplode is the relative objective-explosion threshold: an
	// iteration whose objective exceeds this multiple of the last healthy
	// one is rolled back (default 100).
	WatchdogExplode float64

	// Weights, when non-nil, turns the reconstruction term into the
	// confidence-weighted ‖W^½ ⊙ R_Ω(X − UV)‖²_F: cells with larger weights
	// are trusted more (e.g. per-sensor reliability). Shape must match X,
	// entries must be nonnegative, and only the Multiplicative updater
	// supports it. This is an extension beyond the paper; with W = 1 it
	// reduces exactly to Problems 1/2.
	Weights *mat.Dense
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 10
	}
	if c.Lambda == 0 { //lint:ignore floatcmp zero config value means unset
		c.Lambda = 0.1
	}
	if c.P == 0 {
		c.P = 3
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
	if c.Tol == 0 { //lint:ignore floatcmp zero config value means unset
		c.Tol = 1e-5
	}
	if c.KMeansMaxIter == 0 {
		c.KMeansMaxIter = 300
	}
	if c.KMeansRestarts == 0 {
		c.KMeansRestarts = 1
	}
	if c.LearningRate == 0 { //lint:ignore floatcmp zero config value means unset
		c.LearningRate = 1e-3
	}
	if c.Eps == 0 { //lint:ignore floatcmp zero config value means unset
		c.Eps = 1e-12
	}
	if c.FoldInTol == 0 { //lint:ignore floatcmp zero config value means unset
		c.FoldInTol = 1e-8
	}
	if c.BatchCells == 0 {
		c.BatchCells = 32768
	}
	if c.AnchorEvery == 0 {
		c.AnchorEvery = 2
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 25
	}
	if c.WatchdogRetries == 0 {
		c.WatchdogRetries = 5
	}
	if c.WatchdogExplode == 0 { //lint:ignore floatcmp zero config value means unset
		c.WatchdogExplode = 100
	}
	return c
}

func (c Config) validate(n, m, l int, method Method) error {
	if c.K < 1 {
		return errors.New("core: K must be at least 1")
	}
	if c.K > n {
		return fmt.Errorf("core: K=%d must be ≤ N=%d", c.K, n)
	}
	if c.Lambda < 0 {
		return errors.New("core: Lambda must be nonnegative")
	}
	if c.P < 1 {
		return errors.New("core: P must be at least 1")
	}
	if method != NMF && l < 1 {
		return errors.New("core: spatial methods need at least one SI column")
	}
	if method == SMFL && l >= m {
		return errors.New("core: SI cannot cover every column under SMFL")
	}
	switch c.Updater {
	case Multiplicative, GradientDescent, SGD, SVRG:
	default:
		return fmt.Errorf("core: unknown updater %d", int(c.Updater))
	}
	if c.Weights != nil && c.Updater != Multiplicative {
		return fmt.Errorf("core: weighted objective requires the multiplicative updater, got %s (allowed updaters: multiplicative)", c.Updater)
	}
	if c.Updater.Stochastic() {
		if c.BatchCells < 1 {
			return fmt.Errorf("core: BatchCells must be positive for the %s updater", c.Updater)
		}
		if c.AnchorEvery < 1 {
			return fmt.Errorf("core: AnchorEvery must be positive for the %s updater", c.Updater)
		}
	}
	return nil
}

// Norm carries the per-column min/max normalization fitted on the training
// table (Section IV-A1). When attached to a Model it travels through
// Save/Load, so deployments can map fold-in rows arriving in original units
// into model space and predictions back out without a side-channel file.
type Norm struct {
	Mins, Maxs []float64
}

// Validate checks that the stats describe m columns of finite, ordered
// ranges.
func (n *Norm) Validate(m int) error {
	if len(n.Mins) != m || len(n.Maxs) != m {
		return fmt.Errorf("core: Norm has %d/%d stats for %d columns", len(n.Mins), len(n.Maxs), m)
	}
	for j := range n.Mins {
		if n.Maxs[j] < n.Mins[j] {
			return fmt.Errorf("core: Norm column %d has max %v < min %v", j, n.Maxs[j], n.Mins[j])
		}
	}
	return nil
}

// Model is a fitted factorization X ≈ U·V.
//
// A Model is immutable once Fit or Load returns: Predict, Recover, FoldIn,
// CompleteRows and FeatureLocations only read it, so a single Model may be
// shared by any number of concurrent goroutines (the serving layer relies on
// this; see the -race test in foldin_test.go). Hot reloads must swap the
// *Model pointer rather than mutate fields in place.
//
// In particular V is immutable once the model has served a fold-in: the
// first FoldIn derives the fold-in start row and Vᵀ from V, Config.Seed and
// Config.K and reuses them on every later call. Assigning a new V matrix or
// changing Seed or K rebuilds them; writing V's entries in place does not.
// A Model must not be copied by value (go vet reports it); share the
// pointer.
type Model struct {
	Method Method
	Config Config
	L      int // SI column count of the training matrix

	U *mat.Dense // N×K coefficient matrix
	V *mat.Dense // K×M feature matrix (first L columns = landmarks for SMFL)
	C *mat.Dense // K×L landmark matrix (nil unless SMFL)

	// Norm, when non-nil, is the training normalization (saved since wire
	// version 2; nil for models loaded from v1 files).
	Norm *Norm

	// Placer, when non-nil, is the O(L) landmark placement model attached
	// by fits run with SpatialIndex == SpatialLandmark (saved since wire
	// version 4). FoldIn uses it to warm-start new rows from the trained
	// coefficients of their nearest landmarks; the serving layer uses it to
	// report spatial context. It references nothing of size N.
	Placer *landmark.Placer

	Objective []float64 // objective value after each iteration
	Iters     int       // iterations actually run
	Converged bool      // true when the Tol early stop fired

	// Partial marks a model returned by an interrupted or diverged fit: the
	// best state reached, not a finished artifact. Partial models persist
	// (checkpoints are built on this) and load, but the serving layer
	// refuses to register them.
	Partial bool
	// Recoveries counts divergence-watchdog rollbacks performed during the
	// fit (0 for a numerically uneventful run).
	Recoveries int

	fold atomic.Pointer[foldBasis] // derived on first fold-in; see Model.basis
}

// Predict returns the reconstruction X* = U·V.
func (m *Model) Predict() *mat.Dense { return mat.Mul(nil, m.U, m.V) }

// Recover implements Formula 8: observed entries keep x, the rest take the
// model prediction.
func (m *Model) Recover(x *mat.Dense, omega *mat.Mask) *mat.Dense {
	return omega.Recover(x, m.Predict())
}

// FeatureLocations returns the first L columns of V — the spatial positions
// of the learned features visualized in Figs. 1 and 5.
func (m *Model) FeatureLocations() *mat.Dense {
	k, _ := m.V.Dims()
	return m.V.Slice(0, k, 0, m.L)
}
