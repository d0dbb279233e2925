package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/serve"
)

// traffic is one open-loop mix of one-row requests.
type traffic struct {
	rate  float64       // requests per second
	limit time.Duration // latency limit a good request meets
	pool  int           // distinct requests, sent in turn (see makeRequests)
}

var (
	// pointTraffic sits near half of what two connections sustain (~600/s):
	// each sender waits out the 2 ms coalescing window per request.
	pointTraffic = traffic{rate: 300, limit: 10 * time.Millisecond, pool: 0}
	// probeTraffic is the short mix that measures the serving layers on
	// fit-paper's own model in traced runs.
	probeTraffic = traffic{rate: 200, limit: 10 * time.Millisecond, pool: 256}
)

// serveFoldInIters is the server's fold-in iteration cap (smfld -iters).
const serveFoldInIters = 100

// modelName is the name the benchmark's model is served under.
const modelName = "bench"

// serveEnv is a running server on a loopback listener in this process.
type serveEnv struct {
	registry *serve.Registry
	metrics  *serve.Metrics
	entry    *serve.Entry
	hs       *http.Server
	served   chan error
	url      string
}

// startServer serves model (or, with a path, the model file at path) with
// smfld's defaults: the zero serve.Config is the daemon's flag defaults.
func startServer(model *core.Model, path string) (*serveEnv, error) {
	metrics := serve.NewMetrics()
	registry := serve.NewRegistry(serve.Config{}, metrics)
	var entry *serve.Entry
	var err error
	if path != "" {
		entry, err = registry.LoadFile(modelName, path)
	} else {
		entry, err = registry.Register(modelName, model, "")
	}
	if err != nil {
		registry.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		registry.Close()
		return nil, err
	}
	e := &serveEnv{
		registry: registry, metrics: metrics, entry: entry,
		hs:     &http.Server{Handler: serve.NewServer(registry, metrics).Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/models/" + modelName + "/impute",
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close drains the server and waits for it to stop.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.registry.Close()
	return err
}

// normalize maps original units into model units (identity when the model
// carries no normalization).
func normalize(nz *dataset.Normalizer, x *mat.Dense) *mat.Dense {
	out := x.Clone()
	if nz != nil {
		nz.Apply(out)
	}
	return out
}

// expected is what the server must answer for a request coalesced with
// nothing else: Model.CompleteRows of that request alone.
type expected struct {
	norm  *mat.Dense // normalized units
	orig  *mat.Dense // response units
	truth *mat.Dense // ground truth, normalized units
}

// expectations computes and caches the stand-alone answers per request.
type expectations struct {
	model *core.Model
	nz    *dataset.Normalizer
	reqs  []*request
	cache map[int]*expected
}

func (x *expectations) get(p int) (*expected, error) {
	if e := x.cache[p]; e != nil {
		return e, nil
	}
	req := x.reqs[p]
	norm, err := x.model.CompleteRows(normalize(x.nz, req.rows), req.mask, serveFoldInIters)
	if err != nil {
		return nil, err
	}
	orig := norm.Clone()
	if x.nz != nil {
		x.nz.Invert(orig)
	}
	e := &expected{norm: norm, orig: orig, truth: normalize(x.nz, req.truth)}
	x.cache[p] = e
	return e, nil
}

// phaseResult is a checked traffic phase.
type phaseResult struct {
	samples         []*sample
	times           loadTimes
	before, after   serve.Snapshot
	allocBytes      uint64
	good, ok        int     // good: ok and within the latency limit
	sqErr           float64 // squared error over served hidden cells, normalized
	cells           int
	coalesced       int     // answers whose batch held other requests' rows
	devMax          float64 // largest |served − stand-alone| over coalesced hidden cells
	firstDue, lastT time.Time
}

type imputeResponse struct {
	Rows      [][]float64 `json:"rows"`
	BatchRows int         `json:"batch_rows"`
	Degraded  bool        `json:"degraded"`
}

// runPhase sends n requests of tf against env, then checks every answer.
// Every failure (transport error, non-200, degraded answer, failed check)
// is counted in r.failed.
func (r *run) runPhase(env *serveEnv, ex *expectations, tf traffic, n int, traced bool) (*phaseResult, error) {
	var m0, m1 runtime.MemStats
	res := &phaseResult{before: env.metrics.Snapshot()}
	runtime.ReadMemStats(&m0)
	samples, err := runLoad(context.Background(), loadConfig{
		URL: env.url, Rate: tf.rate, N: n, Senders: 2, Conns: 2, Trace: traced,
	}, func(i int) []byte { return ex.reqs[i%len(ex.reqs)].body })
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	res.after = env.metrics.Snapshot()
	res.samples, res.times, res.allocBytes = samples, timesOf(samples), m1.TotalAlloc-m0.TotalAlloc
	res.firstDue = samples[0].Due
	for i, s := range samples {
		r.attempted++
		if s.Done.After(res.lastT) {
			res.lastT = s.Done
		}
		if traced {
			r.traceRequest(i+1, s)
		}
		if err := r.checkAnswer(res, ex, i%len(ex.reqs), s); err != nil {
			r.fail("request %d: %v", i, err)
			continue
		}
		res.ok++
		if s.latency() <= tf.limit {
			res.good++
		}
	}
	return res, nil
}

// checkAnswer validates one response and folds it into the phase's quality
// figures.
func (r *run) checkAnswer(res *phaseResult, ex *expectations, p int, s *sample) error {
	if s.Err != nil {
		return fmt.Errorf("transport: %v", s.Err)
	}
	if s.Status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", s.Status, s.Body)
	}
	var resp imputeResponse
	if err := json.Unmarshal(s.Body, &resp); err != nil {
		return fmt.Errorf("unparsable body: %v", err)
	}
	if resp.Degraded {
		return errors.New("degraded answer")
	}
	req := ex.reqs[p]
	rows, cols := req.rows.Dims()
	if len(resp.Rows) != rows {
		return fmt.Errorf("%d rows back for %d sent", len(resp.Rows), rows)
	}
	got := mat.NewDense(rows, cols)
	for i, row := range resp.Rows {
		if len(row) != cols {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(row), cols)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("row %d col %d is not finite", i, j)
			}
			// Observed cells come back through normalize/invert, so they
			// echo to within rounding, not bit for bit.
			if sent := req.rows.At(i, j); req.mask.Observed(i, j) && math.Abs(v-sent) > 1e-9*math.Max(1, math.Abs(sent)) {
				return fmt.Errorf("row %d col %d echoes %v for %v", i, j, v, sent)
			}
			got.Set(i, j, v)
		}
	}
	want, err := ex.get(p)
	if err != nil {
		return fmt.Errorf("stand-alone CompleteRows: %v", err)
	}
	gotNorm := normalize(ex.nz, got)
	alone := resp.BatchRows == rows
	if !alone {
		res.coalesced++
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if alone && math.Float64bits(got.At(i, j)) != math.Float64bits(want.orig.At(i, j)) {
				return fmt.Errorf("row %d col %d is %v; CompleteRows of the request alone gives %v", i, j, got.At(i, j), want.orig.At(i, j))
			}
			if req.mask.Observed(i, j) {
				continue
			}
			d := gotNorm.At(i, j) - want.truth.At(i, j)
			res.sqErr += d * d
			res.cells++
			if !alone {
				res.devMax = math.Max(res.devMax, math.Abs(gotNorm.At(i, j)-want.norm.At(i, j)))
			}
		}
	}
	return nil
}

// traceRequest records a served request as a root span (due to last byte)
// with child spans for each stage the generator can see.
func (r *run) traceRequest(req int, s *sample) {
	id := r.tr.Add("request", 0, req, s.Due, s.Done)
	r.tr.Add("loadgen.lag", id, req, s.Due, s.Start)
	sent := s.Start
	if c := s.gotConn.Load(); c != 0 {
		sent = time.Unix(0, c)
		r.tr.Add("loadgen.conn_wait", id, req, s.Start, sent)
	}
	if w := s.wrote.Load(); w != 0 {
		r.tr.Add("http.write", id, req, sent, time.Unix(0, w))
		r.tr.Add("http.service", id, req, time.Unix(0, w), s.Done)
	}
}

// serveState is what serve-point's set-up leaves behind.
type serveState struct {
	env   *serveEnv
	ex    *expectations
	fit   fitRun // the model's fit, timed
	train *table
}

// serveSetup is one set-up of serve-point: generate the table, fit
// the model, save it, load it into a new server, and build the requests.
func (r *run) serveSetup(tf traffic, parent int) (*serveState, error) {
	train, heldOut, nz, err := serveTables()
	if err != nil {
		return nil, err
	}
	f, err := timedFit(func(ctx context.Context) (*core.Model, error) {
		return core.Fit(train.x, train.mask, train.l, core.SMFL, core.Config{Seed: tableSeed, Ctx: ctx})
	})
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	r.traceFit("core.Fit", parent, f)
	f.model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	path := filepath.Join(r.work, "model.smfl")
	start := time.Now()
	if err := f.model.SaveFile(path); err != nil {
		return nil, err
	}
	r.tr.Add("core.SaveFile", parent, 0, start, time.Now())
	start = time.Now()
	env, err := startServer(nil, path)
	if err != nil {
		return nil, err
	}
	r.tr.Add("serve.start", parent, 0, start, time.Now())
	reqs, err := makeRequests(heldOut, train.l, tf.pool, r.seed)
	if err != nil {
		env.close()
		return nil, err
	}
	ex := &expectations{model: env.entry.Model, nz: env.entry.Norm, reqs: reqs, cache: map[int]*expected{}}
	return &serveState{env: env, ex: ex, fit: f, train: train}, nil
}

// servePoint is open-loop point traffic against an smfld-configured server
// in this process, serving an SMFL model fitted on 80% of a Vehicle table.
func servePoint(r *run) error {
	tf := pointTraffic
	var st *serveState
	var fitSecs []float64
	err := r.repeatSetup(func(parent int) error {
		if st != nil {
			if err := st.env.close(); err != nil {
				return err
			}
			st = nil
		}
		var err error
		if st, err = r.serveSetup(tf, parent); err != nil {
			return err
		}
		fitSecs = append(fitSecs, st.fit.wall().Seconds())
		return nil
	})
	if st != nil {
		defer st.env.close()
	}
	if err != nil {
		return err
	}
	n := int(tf.rate * r.seconds)
	if r.tr.on {
		return serveLayers(r, st, tf, n)
	}
	res, err := r.runPhase(st.env, st.ex, tf, n, false)
	if err != nil {
		return err
	}
	p50, p99 := percentile(res.times.latency, 0.50), percentile(res.times.latency, 0.99)
	r.logf("latency p50 %.3f ms (q=%.3f) p99 %.3f ms (q=%.3f) over %d requests; %d ok, %d within %v; %d coalesced",
		p50.Value, p50.Q, p99.Value, p99.Q, p99.N, res.ok, res.good, tf.limit, res.coalesced)
	r.put("fit_s", median(fitSecs))
	r.put("impute_rms", math.Sqrt(res.sqErr/float64(res.cells)))
	r.put("alloc_mb", float64(res.allocBytes)/(1<<20)/(float64(res.ok)/1000))
	r.put("p50_ms", p50.Value)
	r.put("goodput_rps", float64(res.good)/res.lastT.Sub(res.firstDue).Seconds())
	return nil
}
