package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// smallModel fits a tiny SMFL model for batcher/registry unit tests and
// returns it with the normalized table it was trained on.
func smallModel(t testing.TB) (*core.Model, *mat.Dense) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "unit", N: 120, M: 6, L: 2,
		Latents: 2, Bumps: 3, Clusters: 3, Noise: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	model, err := core.Fit(res.Data.X, nil, 2, core.SMFL, core.Config{K: 4, MaxIter: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return model, res.Data.X
}

// batchGate holds the flush goroutine busy: an armed faultinject.ServeBatch
// hook reports each batch entering compute on started, then blocks it until
// open is called. Requests submitted meanwhile queue up behind the held batch,
// which is how tests build a backlog without racing the flush goroutine.
type batchGate struct {
	started chan BatchFault // buffered so the hook never waits on a reader
	release chan struct{}
	once    sync.Once
}

// holdBatches arms a batchGate. Cleanup opens the gate and disarms the hook;
// a test that closes a batcher, registry or server in a defer must also defer
// open after that, because defers run before cleanup and the close waits for
// the held batch.
func holdBatches(t *testing.T) *batchGate {
	t.Helper()
	g := &batchGate{started: make(chan BatchFault, 64), release: make(chan struct{})}
	faultinject.Enable(faultinject.ServeBatch, func(p any) error {
		select {
		case g.started <- *p.(*BatchFault):
		default: // more batches than the buffer holds: nobody is waiting on them
		}
		<-g.release
		return nil
	})
	t.Cleanup(func() {
		g.open()
		faultinject.Disable(faultinject.ServeBatch)
	})
	return g
}

// open lets every held and future batch compute.
func (g *batchGate) open() { g.once.Do(func() { close(g.release) }) }

// wait blocks until a batch enters compute and returns its shape.
func (g *batchGate) wait(t *testing.T) BatchFault {
	t.Helper()
	select {
	case f := <-g.started:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("no batch entered compute")
		return BatchFault{}
	}
}

// hold submits one single-row request and waits until the flush goroutine
// is computing it, returning the request's result channel.
func (g *batchGate) hold(t *testing.T, b *batcher, x *mat.Dense) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil)
		errc <- err
	}()
	if f := g.wait(t); f.Rows != 1 {
		t.Fatalf("held batch has %d rows, want 1", f.Rows)
	}
	return errc
}

func TestBatcherCoalesces(t *testing.T) {
	model, x := smallModel(t)
	b := newBatcher(model, Config{}.withDefaults(), NewMetrics())
	defer b.Close()
	gate := holdBatches(t)
	defer gate.open() // before b.Close, which waits for the held batch
	held := gate.hold(t, b, x)
	// Enqueue on the buffered channel directly while the flush goroutine is
	// held in compute, so every request is pending before it can look at the
	// queue again — deterministic, unlike goroutine timing.
	const n = 16
	reqs := make([]*foldRequest, n)
	for i := range reqs {
		mask := mat.FullMask(1, 6)
		mask.Hide(0, 2+i%4) // one non-SI cell to reconstruct
		reqs[i] = &foldRequest{rows: x.Slice(i, i+1, 0, 6), mask: mask, done: make(chan foldResult, 1)}
		b.in <- reqs[i]
	}
	gate.open()
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}
	for i, req := range reqs {
		res := <-req.done
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if res.batchRows != n {
			t.Fatalf("request %d served in a batch of %d rows, want %d", i, res.batchRows, n)
		}
		if r, c := res.completed.Dims(); r != 1 || c != 6 {
			t.Fatalf("request %d completed shape %dx%d", i, r, c)
		}
		if r, c := res.coeff.Dims(); r != 1 || c != 4 {
			t.Fatalf("request %d coeff shape %dx%d", i, r, c)
		}
		// Each caller's slice must be its own row's reconstruction, bit for
		// bit what the request gets when solved alone: observed cells are
		// recovered verbatim and the hidden cell does not depend on the
		// row's position in the batch.
		alone, err := model.CompleteRows(req.rows, req.mask, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			if req.mask.Observed(0, j) && res.completed.At(0, j) != x.At(i, j) {
				t.Fatalf("request %d cell %d = %v, want %v", i, j, res.completed.At(0, j), x.At(i, j))
			}
			if math.Float64bits(res.completed.At(0, j)) != math.Float64bits(alone.At(0, j)) {
				t.Fatalf("request %d cell %d = %v coalesced, %v alone", i, j, res.completed.At(0, j), alone.At(0, j))
			}
		}
	}
}

// TestBatcherFlushesAtMaxRows: requests submitted while a batch is held in
// compute come back as the following batches, split at MaxBatchRows in
// arrival order.
func TestBatcherFlushesAtMaxRows(t *testing.T) {
	model, x := smallModel(t)
	b := newBatcher(model, Config{MaxBatchRows: 4}.withDefaults(), nil)
	defer b.Close()
	gate := holdBatches(t)
	defer gate.open() // before b.Close, which waits for the held batch
	held := gate.hold(t, b, x)
	const n = 10
	reqs := make([]*foldRequest, n)
	for i := range reqs {
		reqs[i] = &foldRequest{rows: x.Slice(i, i+1, 0, 6), mask: mat.FullMask(1, 6), done: make(chan foldResult, 1)}
		b.in <- reqs[i]
	}
	gate.open()
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}
	for i, req := range reqs {
		var res foldResult
		select {
		case res = <-req.done:
		case <-time.After(10 * time.Second):
			t.Fatal("maxRows flush never fired")
		}
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		want := 4 // 10 rows split as 4, 4, 2
		if i >= 8 {
			want = 2
		}
		if res.batchRows != want {
			t.Fatalf("request %d served in a batch of %d rows, want %d", i, res.batchRows, want)
		}
	}
}

// TestBatcherIdleRequestComputedAlone: with nothing queued behind it, a
// request is batched alone at once — collect never waits for company.
func TestBatcherIdleRequestComputedAlone(t *testing.T) {
	model, x := smallModel(t)
	idle := &batcher{maxRows: 256, in: make(chan *foldRequest, 4)}
	first := &foldRequest{rows: x.Slice(0, 1, 0, 6), mask: mat.FullMask(1, 6)}
	collected := make(chan []*foldRequest, 1)
	go func() { collected <- idle.collect(first) }()
	select {
	case batch := <-collected:
		if len(batch) != 1 || batch[0] != first {
			t.Fatalf("collect on an empty queue returned %d requests, want just the first", len(batch))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("collect blocked on an empty queue")
	}

	b := newBatcher(model, Config{}.withDefaults(), nil)
	defer b.Close()
	rows, mask := x.Slice(0, 1, 0, 6), mat.FullMask(1, 6)
	mask.Hide(0, 3)
	res, err := b.Submit(context.Background(), rows, mask, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.batchRows != 1 {
		t.Fatalf("lone request served in a batch of %d rows, want 1", res.batchRows)
	}
	// Solved on the request's own rows and mask: bit for bit the library
	// answer, with the caller's rows left untouched.
	completed, err := model.CompleteRows(rows, mask, 0)
	if err != nil {
		t.Fatal(err)
	}
	coeff, err := model.FoldIn(rows, mask, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want *mat.Dense }{{res.completed, completed}, {res.coeff, coeff}, {rows, x.Slice(0, 1, 0, 6)}} {
		for j, v := range c.want.Data() {
			if math.Float64bits(c.got.Data()[j]) != math.Float64bits(v) {
				t.Fatalf("entry %d = %v, want %v", j, c.got.Data()[j], v)
			}
		}
	}
}

// TestBatcherQueueDepthCountedBeforeEnqueue: a request enters the
// queue-depth gauge before flush can see it, so flush's decrement always
// finds it counted. Counted after the send, flush could uncount it first,
// the gauge's clamp at zero would swallow that decrement and the late
// increment would stick ("queue depth 1 after quiesce").
func TestBatcherQueueDepthCountedBeforeEnqueue(t *testing.T) {
	model, x := smallModel(t)
	metrics := NewMetrics()
	b := newBatcher(model, Config{QueueDepth: 2}.withDefaults(), metrics)
	defer b.Close()
	gate := holdBatches(t)
	defer gate.open() // before b.Close, which waits for the held batch
	held := gate.hold(t, b, x)

	// With the gauge locked, a Submit must block on counting before its
	// request is visible to flush.
	metrics.mu.Lock()
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), x.Slice(1, 2, 0, 6), mat.FullMask(1, 6), nil)
		errc <- err
	}()
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if len(b.in) > 0 {
			metrics.mu.Unlock()
			t.Fatal("a request reached the queue before it was counted")
		}
	}
	metrics.mu.Unlock()

	// A full queue rejects with ErrOverloaded and uncounts the request.
	for deadline := time.Now().Add(10 * time.Second); len(b.in) < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second request never queued")
		}
	}
	b.in <- &foldRequest{rows: x.Slice(2, 3, 0, 6), mask: mat.FullMask(1, 6), done: make(chan foldResult, 1)}
	metrics.QueueAdd(1) // the request queued directly
	if _, err := b.Submit(context.Background(), x.Slice(3, 4, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit to a full queue: %v, want ErrOverloaded", err)
	}
	if d := metrics.QueueDepth(); d != 2 {
		t.Fatalf("queue depth %d with two requests queued, want 2", d)
	}
	gate.open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// Concurrent submitters against a free-running flush: the gauge must
	// read zero once every Submit has returned.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				row := (c*200 + i) % x.Rows()
				if _, err := b.Submit(context.Background(), x.Slice(row, row+1, 0, 6), mat.FullMask(1, 6), nil); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if d := metrics.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after every request returned, want 0", d)
	}
}

func TestBatcherPropagatesFoldInError(t *testing.T) {
	model, _ := smallModel(t)
	b := newBatcher(model, Config{}.withDefaults(), nil)
	defer b.Close()
	// Wrong column count reaches FoldIn (handlers validate, the batcher
	// itself must still fail cleanly) and the error fans back out.
	bad := mat.NewDense(1, 5)
	if _, err := b.Submit(context.Background(), bad, mat.FullMask(1, 5), nil); err == nil {
		t.Fatal("expected FoldIn shape error")
	}
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	model, x := smallModel(t)
	b := newBatcher(model, Config{}.withDefaults(), nil)
	// Queue a wave on the buffered channel, then Close: every queued request
	// must be flushed (drained), not dropped.
	reqs := make([]*foldRequest, 8)
	for i := range reqs {
		reqs[i] = &foldRequest{rows: x.Slice(i, i+1, 0, 6), mask: mat.FullMask(1, 6), done: make(chan foldResult, 1)}
		b.in <- reqs[i]
	}
	b.Close()
	for i, req := range reqs {
		select {
		case res := <-req.done:
			if res.err != nil {
				t.Fatalf("request %d dropped during drain: %v", i, res.err)
			}
		default:
			t.Fatalf("request %d never answered after Close", i)
		}
	}
	if _, err := b.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func TestBatcherContextCancel(t *testing.T) {
	model, x := smallModel(t)
	b := newBatcher(model, Config{}.withDefaults(), nil)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v", err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	model, x := smallModel(t)
	reg := NewRegistry(Config{KeepVersions: 2}, nil)
	defer reg.Close()

	if _, err := reg.Register("", model, ""); err == nil {
		t.Fatal("expected empty-name error")
	}
	if _, err := reg.Register("bad", &core.Model{}, ""); err == nil {
		t.Fatal("expected unfitted-model error")
	}
	first, err := reg.Register("m", model, "a.smfl")
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := reg.Get("m"); !ok || e != first || e.Version != 1 {
		t.Fatal("Get did not return the registered entry")
	}
	if reg.Len() != 1 {
		t.Fatalf("Len = %d", reg.Len())
	}
	// Hot swap appends a new version and routes unpinned requests to it; the
	// displaced version stays retained (and live) for pinning and rollback.
	second, err := reg.Register("m", model, "b.smfl")
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := reg.Get("m"); e != second || e.Path != "b.smfl" || e.Version != 2 {
		t.Fatal("hot swap did not install the new entry")
	}
	if e, ok := reg.GetVersion("m", 1); !ok || e != first {
		t.Fatal("previous version not pinnable after swap")
	}
	if _, err := first.batcher.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); err != nil {
		t.Fatalf("retained version stopped serving after swap: %v", err)
	}
	// A third version pushes the chain past KeepVersions=2: version 1 is
	// evicted and its batcher drained.
	third, err := reg.Register("m", model, "c.smfl")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.GetVersion("m", 1); ok {
		t.Fatal("evicted version still pinnable")
	}
	if _, err := first.batcher.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("evicted batcher still accepting: %v", err)
	}
	if versions, active, ok := reg.Versions("m"); !ok || active != 3 || len(versions) != 2 || versions[0] != 2 || versions[1] != 3 {
		t.Fatalf("Versions = %v active %d ok %v", versions, active, ok)
	}

	// Rollback reverts the active pointer; the rolled-back-from version stays
	// retained so the revert itself is revertible.
	rolled, err := reg.Rollback("m")
	if err != nil {
		t.Fatal(err)
	}
	if rolled != second {
		t.Fatal("rollback did not restore the previous version")
	}
	if e, _ := reg.Get("m"); e != second {
		t.Fatal("Get does not follow the rollback")
	}
	if e, ok := reg.GetVersion("m", 3); !ok || e != third {
		t.Fatal("rolled-back-from version no longer pinnable")
	}
	if _, err := reg.Rollback("m"); !errors.Is(err, ErrNoPreviousVersion) {
		t.Fatalf("rollback past the oldest version: %v", err)
	}
	if _, err := reg.Rollback("ghost"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("rollback on unknown model: %v", err)
	}

	if !reg.Remove("m") || reg.Remove("m") {
		t.Fatal("Remove bookkeeping wrong")
	}
	if reg.Len() != 0 {
		t.Fatalf("Len after remove = %d", reg.Len())
	}
	// Remove drains every retained version, not just the active one.
	for i, e := range []*Entry{second, third} {
		if _, err := e.batcher.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("version %d batcher still accepting after Remove: %v", i+2, err)
		}
	}
}

func TestRegistryRollbackThenRegisterEvicts(t *testing.T) {
	model, _ := smallModel(t)
	reg := NewRegistry(Config{KeepVersions: 2}, NewMetrics())
	defer reg.Close()
	for i := 0; i < 2; i++ {
		if _, err := reg.Register("m", model, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Rollback("m"); err != nil { // active: v1
		t.Fatal(err)
	}
	// Register after a rollback: v3 becomes active, chain [v2, v3] after
	// eviction (oldest goes first and the active index stays correct).
	e, err := reg.Register("m", model, "p")
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 3 {
		t.Fatalf("version after rollback+register = %d, want 3", e.Version)
	}
	if got, _ := reg.Get("m"); got != e {
		t.Fatal("active entry wrong after rollback+register")
	}
	if versions, active, _ := reg.Versions("m"); active != 3 || len(versions) != 2 || versions[0] != 2 {
		t.Fatalf("chain %v active %d", versions, active)
	}
}

func TestRegistryNormValidation(t *testing.T) {
	model, _ := smallModel(t)
	model.Norm = &core.Norm{Mins: []float64{0}, Maxs: []float64{1}} // wrong width
	reg := NewRegistry(Config{}, nil)
	defer reg.Close()
	if _, err := reg.Register("m", model, ""); err == nil {
		t.Fatal("expected norm width error")
	}
}

func TestMetricsHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.observe(v)
	}
	if h.counts[0] != 2 || h.counts[1] != 1 || h.counts[2] != 1 {
		t.Fatalf("bucket counts %v", h.counts)
	}
	if got := h.mean(); got != 26.625 {
		t.Fatalf("mean %v", got)
	}

	m := NewMetrics()
	m.BeginRequest()
	m.BeginRequest()
	if m.Inflight() != 2 {
		t.Fatal("inflight not tracked")
	}
	m.EndRequest("impute", 2*time.Millisecond, false)
	m.EndRequest("impute", 3*time.Millisecond, true)
	if m.Inflight() != 0 {
		t.Fatal("inflight not released")
	}
	m.ObserveBatch(8)
	m.ObserveBatch(2)
	snap := m.Snapshot()
	ep := snap.Endpoints["impute"]
	if ep.Count != 2 || ep.Errors != 1 {
		t.Fatalf("endpoint snapshot %+v", ep)
	}
	if snap.MeanBatchSize != 5 || snap.RowsTotal != 10 {
		t.Fatalf("batch stats %+v", snap)
	}
}
