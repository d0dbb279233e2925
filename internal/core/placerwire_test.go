package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
)

// placerWireV6 mirrors landmark's placer wire image since wire version 6.
type placerWireV6 struct {
	Coords []byte
	Coeff  []byte
	Probes int
}

// placerWireV5 is the placer wire image written before wire version 6: the
// same fields plus a Landmark-MDS map that nothing read.
type placerWireV5 struct {
	Coords    []byte
	Coeff     []byte
	Probes    int
	MDSDim    int
	MDSMu     []float64
	MDSCoords []byte
	MDSSharp  []byte
}

// placerWireOf decodes p's wire image into the test mirror.
func placerWireOf(tb testing.TB, p *landmark.Placer) placerWireV6 {
	tb.Helper()
	blob, err := p.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	var w placerWireV6
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		tb.Fatal(err)
	}
	return w
}

// v5 returns w in the pre-version-6 shape, carrying a well-formed one-axis
// MDS map like the ones older writers stored.
func (w placerWireV6) v5(tb testing.TB) placerWireV5 {
	tb.Helper()
	coords := new(mat.Dense)
	if err := coords.UnmarshalBinary(w.Coords); err != nil {
		tb.Fatal(err)
	}
	l := coords.Rows()
	axis := mat.NewDense(l, 1)
	for i := 0; i < l; i++ {
		axis.Set(i, 0, coords.At(i, 0))
	}
	ab, err := axis.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return placerWireV5{
		Coords: w.Coords, Coeff: w.Coeff, Probes: w.Probes,
		MDSDim: 1, MDSMu: make([]float64, l), MDSCoords: ab, MDSSharp: ab,
	}
}

// savedWithPlacer saves m with its placer bytes replaced by the gob image
// of pw, stamped with the given wire version.
func savedWithPlacer(tb testing.TB, m *Model, pw any, version int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	var wire modelWire
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		tb.Fatal(err)
	}
	var pb bytes.Buffer
	if err := gob.NewEncoder(&pb).Encode(pw); err != nil {
		tb.Fatal(err)
	}
	wire.Placer = pb.Bytes()
	wire.Version = version
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&wire); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// freshRows returns rows of a different draw than the training set, with
// one non-SI cell hidden per row.
func freshRows(t *testing.T, r, l int) (*mat.Dense, *mat.Mask) {
	t.Helper()
	x, _, _ := testProblem(t, r, 77)
	_, cols := x.Dims()
	mask := mat.FullMask(r, cols)
	for i := 0; i < r; i++ {
		mask.Hide(i, l+i%(cols-l))
	}
	return x, mask
}

// TestLoadPreV6PlacerWire loads a landmark-index model whose placer is in
// the wire shape written before version 6, with the LMDS fields the decoder
// no longer has, and checks it answers exactly like the same model saved in
// the current shape.
func TestLoadPreV6PlacerWire(t *testing.T) {
	x, omega, l := testProblem(t, 160, 13)
	cfg := quickCfg(4)
	cfg.SpatialIndex = SpatialLandmark
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := placerWireOf(t, model.Placer)
	oldBytes := savedWithPlacer(t, model, w.v5(t), 5)
	if !bytes.Contains(oldBytes, []byte("MDSSharp")) {
		t.Fatal("old-shape image does not carry the LMDS fields")
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cur, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Load(bytes.NewReader(oldBytes))
	if err != nil {
		t.Fatalf("pre-v6 placer refused: %v", err)
	}
	if old.Placer == nil || old.Placer.Landmarks() != cur.Placer.Landmarks() {
		t.Fatal("pre-v6 placer did not load")
	}

	rows, mask := freshRows(t, 40, l)
	a, err := cur.CompleteRows(rows.Clone(), mask, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := old.CompleteRows(rows.Clone(), mask, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(a, b); err != nil {
		t.Fatalf("CompleteRows differs between the current and the pre-v6 placer image: %v", err)
	}
	da, db := mat.NewDense(rows.Rows(), cfg.K), mat.NewDense(rows.Rows(), cfg.K)
	for i := 0; i < rows.Rows(); i++ {
		oka := cur.Placer.WarmStart(da.Row(i), rows.Row(i)[:l])
		okb := old.Placer.WarmStart(db.Row(i), rows.Row(i)[:l])
		if !oka || !okb {
			t.Fatalf("row %d: WarmStart refused (current %v, pre-v6 %v)", i, oka, okb)
		}
	}
	if err := sameBits(da, db); err != nil {
		t.Fatalf("WarmStart differs between the current and the pre-v6 placer image: %v", err)
	}
}

// TestMismatchedPlacerGetsNoWarmStart hands a model a placer whose SI width
// or coefficient width disagrees with it: WarmStartPlacer, which the
// serving fallback consults before warm-starting a row, refuses it.
func TestMismatchedPlacerGetsNoWarmStart(t *testing.T) {
	x, omega, l := testProblem(t, 160, 14)
	cfg := quickCfg(4)
	cfg.SpatialIndex = SpatialLandmark
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := x.Rows()
	rng := rand.New(rand.NewSource(14))
	placerOver := func(si *mat.Dense, k int) *landmark.Placer {
		ix, err := landmark.Build(si, landmark.Config{Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ix.NewPlacer(mat.RandomUniform(rng, n, k, 1e-3, 1))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	with := func(p *landmark.Placer) *Model {
		return &Model{Method: model.Method, Config: model.Config, L: model.L,
			U: model.U, V: model.V, C: model.C, Placer: p}
	}
	if model.WarmStartPlacer() != model.Placer {
		t.Fatal("a fitted model's own placer must be usable")
	}
	cases := map[string]*landmark.Placer{
		"SI width":          placerOver(x.Slice(0, n, 0, l+1), cfg.K),
		"coefficient width": placerOver(x.Slice(0, n, 0, l), cfg.K+1),
	}
	for name, p := range cases {
		if with(p).WarmStartPlacer() != nil {
			t.Fatalf("%s: mismatched placer reported usable", name)
		}
	}
	// A model without SI has no coordinates to place.
	noSI := with(model.Placer)
	noSI.L = 0
	if noSI.WarmStartPlacer() != nil {
		t.Fatal("placer reported usable on a model with L = 0")
	}
}
