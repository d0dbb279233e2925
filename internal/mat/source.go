package mat

import "fmt"

// RowSource is the storage seam behind the stochastic training kernels: a
// read-only view of the data matrix X restricted to the observed set Ω, in
// CSR row order. The dense in-memory path (DenseSource) and the out-of-core
// shard store (internal/store) both implement it, and the kernels in batch.go
// and maskmul.go are written against it — so a disk-backed fit executes
// literally the same arithmetic, in the same worker-chunk partition, as an
// in-memory one, which is what makes the two bit-identical.
//
// Contract: Dims/NumObserved/RowPtr are cheap, allocation-free, and stable
// for the life of the source. RowPtr has length n+1 and row i's observed
// cells number RowPtr()[i+1]-RowPtr()[i]; the total equals NumObserved().
type RowSource interface {
	// Dims returns the data shape (n rows, m columns).
	Dims() (n, m int)
	// NumObserved returns |Ω|, the observed-cell count.
	NumObserved() int
	// RowPtr returns the resident CSR row pointer of Ω (length n+1). The
	// returned slice is shared and must not be mutated.
	RowPtr() []int
	// Reader returns a cursor for reading rows. Each worker chunk acquires
	// its own reader (readers are not goroutine-safe) and must Release it
	// when done so pinned backing storage can be evicted.
	Reader() RowReader
}

// RowReader reads one row at a time from a RowSource.
type RowReader interface {
	// Row returns row i's full value slice (length m; kernels only read the
	// observed columns, so unobserved positions may hold anything) and its
	// sorted observed-column list. Both slices are read-only views valid
	// until the next Row or Release call on this reader.
	Row(i int) (x []float64, cols []int32)
	// Release returns any resources pinned by the reader.
	Release()
}

// DenseSource adapts an in-memory (X, Ω) pair to the RowSource seam. It
// snapshots the mask's CSR index at construction, so it must not outlive a
// mutation of the mask (they are allocation-cheap to rebuild).
type DenseSource struct {
	x  *Dense
	ix *maskIndex
}

// NewDenseSource wraps x restricted to omega. Shapes must match.
func NewDenseSource(x *Dense, omega *Mask) *DenseSource {
	if x.rows != omega.rows || x.cols != omega.cols {
		panic(fmt.Sprintf("mat: RowSource data %dx%d vs mask %dx%d", x.rows, x.cols, omega.rows, omega.cols))
	}
	return &DenseSource{x: x, ix: omega.rowIdx()}
}

// Dims implements RowSource.
func (s *DenseSource) Dims() (int, int) { return s.x.rows, s.x.cols }

// NumObserved implements RowSource.
func (s *DenseSource) NumObserved() int { return len(s.ix.idx) }

// RowPtr implements RowSource.
func (s *DenseSource) RowPtr() []int { return s.ix.indptr }

// Reader implements RowSource. The dense reader is a stateless view, so
// Release is a no-op and any number may be outstanding.
func (s *DenseSource) Reader() RowReader { return denseReader{s} }

type denseReader struct{ s *DenseSource }

func (r denseReader) Row(i int) ([]float64, []int32) {
	cols := r.s.x.cols
	ix := r.s.ix
	return r.s.x.data[i*cols : (i+1)*cols], ix.idx[ix.indptr[i]:ix.indptr[i+1]]
}

func (r denseReader) Release() {}
