package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

// inputBytes serializes everything a workload hands the program under test
// for one seed: the training tables (values and masks) and every request
// body.
func inputBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(x *mat.Dense, m *mat.Mask) {
		for _, v := range x.Data() {
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
		}
		r, c := m.Dims()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if m.Observed(i, j) {
					buf.WriteByte(1)
				} else {
					buf.WriteByte(0)
				}
			}
		}
	}
	paper, err := paperTable(seed)
	if err != nil {
		t.Fatal(err)
	}
	put(paper.x, paper.mask)
	ooc, err := outOfCoreTable(seed)
	if err != nil {
		t.Fatal(err)
	}
	put(ooc.x, ooc.mask)
	train, held, _, err := serveTables()
	if err != nil {
		t.Fatal(err)
	}
	put(train.x, train.mask)
	reqs, err := makeRequests(held, train.l, pointTraffic.pool, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		buf.Write(r.body)
	}
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b := inputBytes(t, 7), inputBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 produced different inputs on two calls")
	}
	if c := inputBytes(t, 8); bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 produced identical inputs")
	}
}

// Hidden cells never reach the program: the table it fits on holds zeros
// there, and a request leaves them null.
func TestHiddenCellsAreWithheld(t *testing.T) {
	tbl, err := paperTable(3)
	if err != nil {
		t.Fatal(err)
	}
	n, m := tbl.x.Dims()
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if !tbl.mask.Observed(i, j) && tbl.x.At(i, j) != 0 {
				t.Fatalf("hidden cell (%d,%d) carries %v", i, j, tbl.x.At(i, j))
			}
		}
	}
	train, held, _, err := serveTables()
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := makeRequests(held, train.l, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	hn, hm := held.Dims()
	if len(reqs) != hn*(hm-train.l) {
		t.Fatalf("%d requests for %d held-out non-SI cells", len(reqs), hn*(hm-train.l))
	}
	for _, r := range reqs {
		if got := bytes.Count(r.body, []byte("null")); got != 1 {
			t.Errorf("request body has %d nulls for 1 hidden cell: %s", got, r.body)
		}
		for j := 0; j < hm; j++ {
			if !r.mask.Observed(0, j) && (j < train.l || r.rows.At(0, j) != 0) {
				t.Errorf("hidden cell at column %d (SI columns %d) carries %v", j, train.l, r.rows.At(0, j))
			}
		}
	}
}
