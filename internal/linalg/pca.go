package linalg

import (
	"errors"

	"github.com/spatialmf/smfl/internal/mat"
)

// PCA projects the rows of x onto its top-k principal components.
// Returns the n×k score matrix. Columns of x are centered first.
func PCA(x *mat.Dense, k int) (*mat.Dense, error) {
	n, m := x.Dims()
	if k <= 0 || k > m {
		return nil, errors.New("linalg: PCA component count out of range")
	}
	centered := x.Clone()
	for j := 0; j < m; j++ {
		var mean float64
		for i := 0; i < n; i++ {
			mean += centered.At(i, j)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			centered.Set(i, j, centered.At(i, j)-mean)
		}
	}
	svd, err := ComputeSVD(centered)
	if err != nil {
		return nil, err
	}
	scores := mat.NewDense(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			scores.Set(i, j, svd.U.At(i, j)*svd.S[j])
		}
	}
	return scores, nil
}
