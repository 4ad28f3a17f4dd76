//go:build !amd64

package blas

// Portable fallback for the Dgemv column-group kernel; never reached while
// useAVXKernel is false, but keeps the dispatch site identical across build
// targets.
func gemvNoTrans4AVX(y, c0, c1, c2, c3 []float64, t *[4]float64) {
	for q, c := range [4][]float64{c0, c1, c2, c3} {
		axpyGemv(y, t[q], c)
	}
}
