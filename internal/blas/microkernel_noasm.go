//go:build !amd64

package blas

// Portable fallback: architectures without the assembly kernels always
// take the Go paths. The var (rather than const) keeps the dispatch sites
// identical across build targets.
var useAVXKernel = false

func microKernelAVX(kc int, alpha float64, pa, pb, c []float64, ldc int) {
	microKernelGo(kc, alpha, pa, pb, c, ldc)
}
