package landmark

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"

	"github.com/spatialmf/smfl/internal/mat"
)

// Placer is the O(L) placement model for rows that arrive after training:
// it holds only landmark-sized state (L×d coordinates and the L×k landmark
// rows of the trained coefficient matrix), so placing a row costs exactly L
// distance evaluations regardless of how many rows the model was trained
// on. It is immutable and safe for concurrent use.
type Placer struct {
	coords *mat.Dense // L×d landmark SI coordinates
	coeff  *mat.Dense // L×k landmark fold-in coefficients
	probes int
}

// Placement is the spatial context of one placed row.
type Placement struct {
	// Nearest lists the closest landmarks (positions in the landmark set,
	// nearest first) and Dist the matching distances.
	Nearest []int
	Dist    []float64
	// DistEvals counts distance evaluations performed — always exactly L,
	// the op-count the no-O(N) placement test pins down.
	DistEvals int
}

// Landmarks returns L.
func (p *Placer) Landmarks() int { return p.coords.Rows() }

// Dim returns the SI dimensionality the placer expects.
func (p *Placer) Dim() int { return p.coords.Cols() }

// Place computes the spatial context of a row from its SI coordinates
// alone. The input length must match Dim and be finite.
func (p *Placer) Place(si []float64) (Placement, error) {
	l, d := p.coords.Dims()
	if len(si) != d {
		return Placement{}, errors.New("landmark: Place input length mismatch")
	}
	for _, v := range si {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Placement{}, errors.New("landmark: Place input not finite")
		}
	}
	q := p.probes
	if q > l {
		q = l
	}
	nearest := make([]int, 0, q)
	dist := make([]float64, 0, q)
	for b := 0; b < l; b++ {
		db := math.Sqrt(sqDist(si, p.coords.Row(b)))
		if len(nearest) == q && db >= dist[q-1] {
			continue
		}
		at := len(nearest)
		if at < q {
			nearest = append(nearest, 0)
			dist = append(dist, 0)
		} else {
			at = q - 1
		}
		for at > 0 && dist[at-1] > db {
			nearest[at], dist[at] = nearest[at-1], dist[at-1]
			at--
		}
		nearest[at], dist[at] = b, db
	}
	return Placement{
		Nearest:   nearest,
		Dist:      dist,
		DistEvals: l,
	}, nil
}

// WarmStart writes a fold-in initialization for a row with SI coordinates
// si into dst (length k): an inverse-distance Shepard blend of the nearest
// landmarks' trained coefficient rows, floored at the random-init minimum
// so multiplicative updates never see a stuck zero. Returns false (dst
// untouched) when the input is unusable, letting the caller keep its
// random initialization.
func (p *Placer) WarmStart(dst, si []float64) bool {
	if len(dst) != p.coeff.Cols() {
		return false
	}
	pl, err := p.Place(si)
	if err != nil {
		return false
	}
	const eps = 1e-9
	for k := range dst {
		dst[k] = 0
	}
	var wsum float64
	for t, b := range pl.Nearest {
		w := 1 / (pl.Dist[t]*pl.Dist[t] + eps)
		wsum += w
		row := p.coeff.Row(b)
		for k, v := range row {
			dst[k] += w * v
		}
	}
	if wsum <= 0 || math.IsNaN(wsum) || math.IsInf(wsum, 0) {
		return false
	}
	for k := range dst {
		dst[k] /= wsum
		if dst[k] < 1e-3 {
			dst[k] = 1e-3
		}
	}
	return true
}

// placerWire is the gob image of a Placer. Fields are append-only; never
// reuse a retired name. Placers written before wire version 6 also carry
// MDSDim, MDSMu, MDSCoords and MDSSharp (a Landmark-MDS map nothing read),
// which gob skips on decode.
type placerWire struct {
	Coords []byte
	Coeff  []byte
	Probes int
}

// MarshalBinary encodes the placer for persistence inside a model file.
func (p *Placer) MarshalBinary() ([]byte, error) {
	w := placerWire{Probes: p.probes}
	var err error
	if w.Coords, err = p.coords.MarshalBinary(); err != nil {
		return nil, err
	}
	if w.Coeff, err = p.coeff.MarshalBinary(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a placer written by MarshalBinary.
func (p *Placer) UnmarshalBinary(data []byte) error {
	var w placerWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	coords, coeff := &mat.Dense{}, &mat.Dense{}
	if err := coords.UnmarshalBinary(w.Coords); err != nil {
		return err
	}
	if err := coeff.UnmarshalBinary(w.Coeff); err != nil {
		return err
	}
	if w.Probes <= 0 || coords.Rows() == 0 || coords.Rows() != coeff.Rows() {
		return errors.New("landmark: placer wire state inconsistent")
	}
	p.coords = coords
	p.coeff = coeff
	p.probes = w.Probes
	return nil
}

// Coeff returns the L×k landmark coefficient block (read-only).
func (p *Placer) Coeff() *mat.Dense { return p.coeff }

// Validate rejects placer state that decoded cleanly but does not describe a
// well-formed placement model: missing or non-finite matrices. Model loading
// calls this so a corrupted or hostile file is refused instead of crashing
// serving later.
func (p *Placer) Validate() error {
	if p.coords == nil || p.coeff == nil {
		return errors.New("landmark: placer missing state")
	}
	if !p.coords.IsFinite() || !p.coeff.IsFinite() {
		return errors.New("landmark: placer has non-finite entries")
	}
	return nil
}
