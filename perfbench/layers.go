package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/serve"
	"github.com/spatialmf/smfl/internal/spatial"
	"github.com/spatialmf/smfl/internal/store"
)

// Traced runs. Each workload records spans around its own calls into the
// layers. Layers its own path does not reach are measured under a "probe"
// span, so every per-layer metric is a measured number on every workload:
// fit-paper probes the server with its own model, and every workload runs
// the out-of-core fit (see storeLayers).

// kernelReps is how many calls each per-call kernel figure is the median of.
const kernelReps = 20

// spanMedianMS is the median wall time of the spans called name.
func (r *run) spanMedianMS(name string) float64 {
	var ds []float64
	for _, s := range r.tr.Spans() {
		if s.Name == name {
			ds = append(ds, ms(s.Dur()))
		}
	}
	return median(ds)
}

// timeCall runs fn under a span and returns its wall time.
func (r *run) timeCall(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.tr.Add(name, parent, 0, start, end)
	return end.Sub(start)
}

// fitLayers is fit-paper's traced run: the fit once untraced and once
// traced (the ratio is the tracing overhead), then every layer.
func fitLayers(r *run, tbl *table, fit func(ctx context.Context) (*core.Model, error)) error {
	plain, err := timedFit(fit)
	r.attempted++
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	f, err := timedFit(fit)
	r.attempted++
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	if math.Float64bits(finalObjective(f.model)) != math.Float64bits(finalObjective(plain.model)) {
		r.fail("traced fit's objective %v differs from the untraced fit's %v", finalObjective(f.model), finalObjective(plain.model))
	}
	r.traceFit("core.Fit", 0, f)
	r.put("trace.overhead_ratio", f.wall().Seconds()/plain.wall().Seconds())
	if err := libraryLayers(r, tbl, f); err != nil {
		return err
	}
	if err := storeLayers(r); err != nil {
		return err
	}
	return serveProbe(r, tbl, f.model)
}

// serveLayers is serve-point's traced run: half the requests
// untraced, half traced (the p50 ratio is the tracing overhead), the
// server's own counters, a fold-in replay, the library layers on the served
// model's training table, and the out-of-core fit.
func serveLayers(r *run, st *serveState, tf traffic, n int) error {
	plain, err := r.runPhase(st.env, st.ex, tf, n/2, false)
	if err != nil {
		return err
	}
	traced, err := r.serveMetrics(st.env, st.ex, tf, n-n/2)
	if err != nil {
		return err
	}
	r.put("trace.overhead_ratio", percentile(traced.times.latency, 0.5).Value/percentile(plain.times.latency, 0.5).Value)
	if err := libraryLayers(r, st.train, st.fit); err != nil {
		return err
	}
	return storeLayers(r)
}

// libraryLayers measures spatial, K-means and the masked kernels at the
// table's shape and the fitted model's factors, and the fit's iteration
// figures.
func libraryLayers(r *run, tbl *table, f fitRun) error {
	model := f.model
	n, _ := tbl.x.Dims()
	si := tbl.x.Slice(0, n, 0, tbl.l) // every table keeps its SI columns observed
	cfg := model.Config

	var g *spatial.Graph
	var err error
	buildMS := ms(r.timeCall("spatial.BuildGraph", 0, func() { g, err = spatial.BuildGraph(si, 3, spatial.KDTreeMode) }))
	if err != nil {
		return fmt.Errorf("spatial.BuildGraph: %w", err)
	}
	r.put("spatial.build_ms", buildMS)
	r.put("spatial.edges", float64(g.Edges()))
	dw := mat.NewDense(n, cfg.K)
	for i := 0; i < kernelReps; i++ {
		r.timeCall("spatial.MulDW", 0, func() { g.MulD(dw, model.U); g.MulW(dw, model.U) })
	}
	r.put("spatial.muldw_ms", r.spanMedianMS("spatial.MulDW"))

	var km *kmeans.Result
	kmMS := ms(r.timeCall("kmeans.Run", 0, func() {
		km, err = kmeans.Run(si, kmeans.Config{K: cfg.K, MaxIter: kmeans.DefaultMaxIter, Seed: cfg.Seed, Restarts: 1})
	}))
	if err != nil {
		return fmt.Errorf("kmeans.Run: %w", err)
	}
	r.put("kmeans.run_ms", kmMS)
	r.put("kmeans.iters", float64(km.Iters))

	// The fit's own graph build and K-means run are estimated by the
	// stand-alone calls above; an NMF fit has neither.
	setupMS := 0.0
	if model.Method != core.NMF {
		setupMS = buildMS + kmMS
	}
	r.put("core.iters", float64(model.Iters))
	r.put("core.iter_ms_est", (ms(f.wall())-setupMS)/float64(model.Iters))

	matLayers(r, tbl, model.U, model.V)
	r.put("mat.workers", float64(mat.Workers()))
	return nil
}

// matLayers times the three masked kernels of a multiplicative iteration at
// the table's shape. The Mflop and MB figures are computed from the shape,
// not measured: the gathered kernels touch |Ω| cells, the dense fallback
// (mask density ≥ mat.DenseCutover) touches all n·m.
func matLayers(r *run, tbl *table, u, v *mat.Dense) {
	n, m := tbl.x.Dims()
	k := u.Cols()
	cells := float64(tbl.mask.Count())
	if tbl.mask.Density() >= mat.DenseCutover {
		cells = float64(n * m)
	}
	const f64, i32 = 8, 4
	fn, fm, fk := float64(n), float64(m), float64(k)
	factors := (fn*fk + fk*fm) * f64
	index := cells*i32 + (fn+1)*f64
	rx := tbl.mask.Project(nil, tbl.x)
	pm := mat.NewDense(n, m)
	bt := mat.NewDense(n, k)
	for i := 0; i < kernelReps; i++ {
		r.timeCall("mat.ProjectMul", 0, func() { tbl.mask.ProjectMul(pm, u, v) })
		r.timeCall("mat.MulBTObserved", 0, func() { tbl.mask.MulBTObserved(bt, rx, v) })
		r.timeCall("mat.MaskedFrob2Mul", 0, func() { tbl.mask.MaskedFrob2Mul(tbl.x, u, v) })
	}
	r.put("mat.projectmul_ms", r.spanMedianMS("mat.ProjectMul"))
	r.put("mat.projectmul_mflop", 2*cells*fk/1e6)
	r.put("mat.projectmul_mb", (factors+index+fn*fm*f64)/1e6)
	r.put("mat.mulbtobs_ms", r.spanMedianMS("mat.MulBTObserved"))
	r.put("mat.mulbtobs_mflop", 2*cells*fk/1e6)
	r.put("mat.mulbtobs_mb", (cells*f64+index+fk*fm*f64+fn*fk*f64)/1e6)
	r.put("mat.frob2mul_ms", r.spanMedianMS("mat.MaskedFrob2Mul"))
	r.put("mat.frob2mul_mflop", (2*cells*fk+3*cells)/1e6)
	r.put("mat.frob2mul_mb", (cells*f64+index+factors)/1e6)
}

// storeLayers is the out-of-core fit measured as a layer: NMF with SGD on
// the 20 000×50 synthetic table at 90% missing (the `smflbench -store`
// table), written with store.Write, fitted through FitSource from a store
// opened at a quarter of its size on disk, and fitted again over the
// in-memory pair. The store's fit must end on the in-memory objective bit
// for bit. It is a layer probe rather than a workload because its epoch
// time swings with the host's syscall and page-fault cost: ten runs spread
// 0.20–0.25 of their median, at the limit of any bound.
func storeLayers(r *run) error {
	parent, end := r.tr.Open("probe.store", 0)
	defer end()
	cfg := outOfCoreConfig()
	tbl, err := outOfCoreTable(r.seed)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.work, "layer-store")
	diskBytes, err := r.writeStore(dir, tbl, parent)
	if err != nil {
		return fmt.Errorf("store.Write: %w", err)
	}
	st, err := r.openStore(dir, diskBytes, parent)
	if err != nil {
		return fmt.Errorf("store.Open: %w", err)
	}
	f, err := timedFit(func(ctx context.Context) (*core.Model, error) {
		c := cfg
		c.Ctx = ctx
		return core.FitSource(st, tbl.l, core.NMF, c)
	})
	stats := st.Stats()
	st.Close()
	r.attempted++
	if err != nil {
		return fmt.Errorf("FitSource: %w", err)
	}
	r.traceFit("core.FitSource", parent, f)
	dense, err := timedFit(func(ctx context.Context) (*core.Model, error) {
		c := cfg
		c.Ctx = ctx
		return core.Fit(tbl.x, tbl.mask, tbl.l, core.NMF, c)
	})
	r.attempted++
	if err != nil {
		return fmt.Errorf("in-memory fit: %w", err)
	}
	r.traceFit("core.Fit.dense", parent, dense)
	if math.Float64bits(finalObjective(f.model)) != math.Float64bits(finalObjective(dense.model)) {
		r.fail("store objective %v != in-memory objective %v", finalObjective(f.model), finalObjective(dense.model))
	}
	epochs := float64(f.model.Iters)
	sampler := mat.NewBatchSampler(tbl.mask, cfg.BatchCells, uint64(cfg.Seed))
	sampler.Reshuffle()
	r.put("core.epoch_ms", median(msOf(f.iterDurations())))
	r.put("core.dense_epoch_ms", median(msOf(dense.iterDurations())))
	r.put("mat.batches_per_epoch", float64(sampler.NumBatches()))
	r.put("store.write_ms", r.spanMedianMS("store.Write"))
	r.put("store.open_ms", r.spanMedianMS("store.Open"))
	r.put("store.shard_maps_per_epoch", float64(stats.ShardMaps)/epochs)
	r.put("store.evictions_per_epoch", float64(stats.Evictions)/epochs)
	r.put("store.peak_resident_mb", float64(stats.PeakResident)/(1<<20))
	return nil
}

// outOfCoreConfig is the out-of-core layer's fit: SGD at the
// `smflbench -store` settings for a fixed number of epochs (the tolerance is
// unreachable).
func outOfCoreConfig() core.Config {
	return core.Config{
		K: 6, Lambda: 0.1, MaxIter: 3, Tol: 1e-15, Seed: tableSeed,
		Updater: core.SGD, BatchCells: 32768, LearningRate: 5e-3,
	}
}

// storeBudgetShare is the memory budget of the out-of-core layer's store as
// a share of its size on disk.
const storeBudgetShare = 0.25

// writeStore writes tbl as a shard store under dir and returns its size on
// disk.
func (r *run) writeStore(dir string, tbl *table, parent int) (int64, error) {
	start := time.Now()
	if err := store.Write(dir, tbl.x, tbl.mask, store.WriteOptions{}); err != nil {
		return 0, err
	}
	r.tr.Add("store.Write", parent, 0, start, time.Now())
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var size int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		size += fi.Size()
	}
	return size, nil
}

// openStore opens dir at a quarter of its on-disk size.
func (r *run) openStore(dir string, diskBytes int64, parent int) (*store.Store, error) {
	start := time.Now()
	st, err := store.Open(dir, store.Config{MemBudget: int64(storeBudgetShare * float64(diskBytes))})
	r.tr.Add("store.Open", parent, 0, start, time.Now())
	return st, err
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// serveProbe serves a fit workload's model and sends it a short point mix
// built from the table's rows, so the serving layers are measured on every
// workload.
func serveProbe(r *run, tbl *table, model *core.Model) error {
	id, end := r.tr.Open("probe.serve", 0)
	defer end()
	start := time.Now()
	env, err := startServer(model, "")
	if err != nil {
		return err
	}
	r.tr.Add("serve.start", id, 0, start, time.Now())
	defer env.close()
	reqs, err := makeRequests(tbl.truth, tbl.l, probeTraffic.pool, r.seed)
	if err != nil {
		return err
	}
	ex := &expectations{model: env.entry.Model, nz: env.entry.Norm, reqs: reqs, cache: map[int]*expected{}}
	res, err := r.serveMetrics(env, ex, probeTraffic, int(probeTraffic.rate*1.5))
	if err != nil {
		return err
	}
	r.logf("serve probe: %d requests, %d ok", len(res.samples), res.ok)
	return nil
}

// serveMetrics runs one traced phase and puts the serving, fold-in and
// generator metrics.
func (r *run) serveMetrics(env *serveEnv, ex *expectations, tf traffic, n int) (*phaseResult, error) {
	res, err := r.runPhase(env, ex, tf, n, true)
	if err != nil {
		return nil, err
	}
	b, a := res.before, res.after
	h50, h99 := histQuantile(b.Endpoints["impute"].LatencyMS, a.Endpoints["impute"].LatencyMS, 0.5),
		histQuantile(b.Endpoints["impute"].LatencyMS, a.Endpoints["impute"].LatencyMS, 0.99)
	meanBatch := (a.Batch.Sum - b.Batch.Sum) / float64(a.Batch.Count-b.Batch.Count)
	r.put("serve.handler_p50_ms", h50.Value)
	r.put("serve.handler_p99_ms", h99.Value)
	r.put("serve.batch_rows_mean", meanBatch)
	r.put("serve.coalesced_share", float64(res.coalesced)/float64(max(res.ok, 1)))
	r.put("serve.admission_rejections", float64(a.AdmissionRejections-b.AdmissionRejections))
	r.put("serve.timeouts", float64(a.TimeoutsTotal-b.TimeoutsTotal))
	r.put("serve.degraded", float64(a.DegradedTotal-b.DegradedTotal))
	r.put("serve.panics", float64(a.PanicsTotal-b.PanicsTotal))
	r.put("core.foldin_batch_dev_max", res.devMax)
	lat, lag := percentile(res.times.latency, 0.99), percentile(res.times.lag, 0.99)
	conn, svc := percentile(res.times.connWait, 0.99), percentile(res.times.service, 0.5)
	r.put("loadgen.latency_p99_ms", lat.Value)
	r.put("loadgen.lag_p99_ms", lag.Value)
	r.put("loadgen.conn_wait_p99_ms", conn.Value)
	r.put("http.service_p50_ms", svc.Value)
	r.logf("latency p99 %.3f ms at q=%.3f of %d; handler p99 at q=%.3f of %d; mean batch %.2f rows; %d coalesced answers, dev max %.3g",
		lat.Value, lat.Q, lat.N, h99.Q, h99.N, meanBatch, res.coalesced, res.devMax)
	return res, r.foldInReplay(ex, res, meanBatch)
}

// foldInReplay replays the phase's requests, in send order, through
// Model.FoldInCtx at the server's iteration cap: in batches of the
// server's observed mean batch size, and in full MaxBatchRows batches, the
// size a bulk caller's request flushes at.
func (r *run) foldInReplay(ex *expectations, res *phaseResult, meanBatch float64) error {
	observed, err := r.replayBatches(ex, len(res.samples), max(1, int(math.Round(meanBatch))), 200)
	if err != nil {
		return err
	}
	full, err := r.replayBatches(ex, len(res.samples), serveMaxBatchRows, 16)
	if err != nil {
		return err
	}
	r.put("core.foldin_batch_ms", median(observed.batchMS))
	r.put("core.foldin_us_per_row", observed.usPerRow())
	r.put("core.foldin_maxbatch_us_per_row", full.usPerRow())
	return nil
}

// serveMaxBatchRows is the server's MaxBatchRows (smfld -maxbatch).
const serveMaxBatchRows = 256

type replay struct {
	batchMS []float64
	rows    int
}

func (p replay) usPerRow() float64 {
	var sum float64
	for _, b := range p.batchMS {
		sum += b
	}
	return sum * 1000 / float64(p.rows)
}

// replayBatches folds in up to maxBatches batches of size rows, stacked
// from the first n requests in send order (cycling the pool).
func (r *run) replayBatches(ex *expectations, n, size, maxBatches int) (replay, error) {
	var out replay
	var blocks []*mat.Dense
	var masks []*mat.Mask
	for i := 0; len(out.batchMS) < maxBatches && (i < n || len(blocks) > 0); i++ {
		req := ex.reqs[i%len(ex.reqs)]
		blocks = append(blocks, normalize(ex.nz, req.rows))
		masks = append(masks, req.mask)
		if len(blocks) < size {
			continue
		}
		x, omega := mat.VStack(blocks...), mat.VStackMasks(masks...)
		var err error
		d := r.timeCall("core.FoldInCtx", 0, func() {
			_, err = ex.model.FoldInCtx(context.Background(), x, omega, serveFoldInIters)
		})
		if err != nil {
			return out, fmt.Errorf("fold-in replay: %w", err)
		}
		out.batchMS = append(out.batchMS, ms(d))
		out.rows += len(blocks)
		blocks, masks = blocks[:0], masks[:0]
	}
	return out, nil
}

// histQuantile reads the q-quantile of the observations a histogram gained
// between two snapshots, interpolating linearly inside the bucket, with the
// same ten-beyond rule as percentile.
func histQuantile(before, after serve.HistogramSnapshot, q float64) Quantile {
	counts := make([]float64, len(after.Counts))
	n := 0
	for i := range counts {
		c := after.Counts[i]
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		counts[i] = float64(c)
		n += int(c)
	}
	if n <= minBeyond {
		return Quantile{Value: math.NaN(), Q: q, N: n}
	}
	rank := math.Ceil(q * float64(n))
	if float64(n)-rank < minBeyond {
		rank = float64(n - minBeyond)
		q = rank / float64(n)
	}
	var cum float64
	for i, c := range counts {
		if cum+c < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = after.Bounds[i-1]
		}
		if i >= len(after.Bounds) {
			return Quantile{Value: lo, Q: q, N: n}
		}
		return Quantile{Value: lo + (after.Bounds[i]-lo)*(rank-cum)/c, Q: q, N: n}
	}
	return Quantile{Value: math.NaN(), Q: q, N: n}
}
