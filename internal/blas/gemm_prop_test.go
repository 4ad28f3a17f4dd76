package blas

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matrix"
)

// Property tests for the blocked Dgemm and, at the end of the file, the
// Dgemv(NoTrans) kernel. Dgemm: every transpose case, over sizes
// chosen to hit the awkward paths — odd and prime dimensions that leave
// ragged MR/NR edge tiles, and sizes straddling the MC/KC/NC cache-block
// boundaries — checked against the kept-private pre-blocking kernel
// (naiveGemm), on the serial path, the forced pool path, and both
// micro-kernel implementations.

// propSizes are small odd/prime/power-of-two dimensions; every (m, n, k)
// triple over them is tested.
var propSizes = []int{1, 2, 3, 5, 7, 11, 13, 16, 17}

// propEdgeShapes straddle the blocking parameters: one past a micro-tile,
// exactly one cache block, one past a cache block, and multi-block m with
// leftover k.
var propEdgeShapes = [][3]int{
	{gemmMR, gemmNR, gemmKC},               // exactly one micro-tile, full k block
	{gemmMC, gemmNR, gemmKC},               // exactly one MC×KC A block
	{gemmMC + 3, gemmNR + 1, gemmKC + 1},   // one past every boundary at once
	{2*gemmMC + 1, 3, gemmKC},              // multiple m blocks, ragged last
	{5, gemmNC + 1, 7},                     // multiple n blocks, tiny m and k
	{gemmMR - 1, gemmNR - 1, 2*gemmKC + 5}, // pure edge tile, deep k
}

// checkGemmAgainstNaive runs one (shape, transpose) case through Dgemm and
// compares against naiveGemm. The blocked kernel accumulates in a different
// association order (and through FMA on amd64), so comparison is by
// tolerance scaled with the inner-product length.
func checkGemmAgainstNaive(t *testing.T, tA, tB Transpose, m, n, k int) {
	t.Helper()
	const alpha, beta = 1.3, -0.7
	ar, ac := m, k
	if tA == Trans {
		ar, ac = k, m
	}
	br, bc := k, n
	if tB == Trans {
		br, bc = n, k
	}
	seed := uint64(m*1000003 + n*1009 + k*13)
	a := matrix.Random(ar, ac, seed)
	b := matrix.Random(br, bc, seed+1)
	c0 := matrix.Random(m, n, seed+2)

	want := c0.Clone()
	naiveGemm(tA, tB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, want.Data, want.Stride)
	got := c0.Clone()
	Dgemm(tA, tB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, got.Data, got.Stride)

	tol := 1e-12 * float64(k+1)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			w, g := want.At(i, j), got.At(i, j)
			if math.Abs(w-g) > tol*(math.Abs(w)+1) {
				t.Fatalf("Dgemm(%v,%v) m=%d n=%d k=%d: C(%d,%d) = %v, naive = %v",
					tA, tB, m, n, k, i, j, g, w)
			}
		}
	}
}

func runGemmProperty(t *testing.T, shapes [][3]int) {
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, tB := range []Transpose{NoTrans, Trans} {
			for _, s := range shapes {
				checkGemmAgainstNaive(t, tA, tB, s[0], s[1], s[2])
			}
		}
	}
}

// kernelPropConfigs runs fn under every combination of execution path
// (serial / forced-parallel, for both the Level-3 and the Level-2 pool
// thresholds) and kernel implementation (vectorized / portable Go)
// available on this machine.
func kernelPropConfigs(t *testing.T, fn func(t *testing.T)) {
	kernels := []bool{useAVXKernel}
	if useAVXKernel {
		kernels = append(kernels, false) // also cover the portable kernel
	}
	for _, avx := range kernels {
		for _, par := range []bool{false, true} {
			name := fmt.Sprintf("kernel=%s/parallel=%v", map[bool]string{true: "avx", false: "go"}[avx], par)
			t.Run(name, func(t *testing.T) {
				origKernel := useAVXKernel
				origProcs := SetMaxProcs(1)
				origGemm, origL2 := parallelGemmThreshold, parallelL2Threshold
				defer func() {
					useAVXKernel = origKernel
					SetMaxProcs(origProcs)
					parallelGemmThreshold, parallelL2Threshold = origGemm, origL2
				}()
				useAVXKernel = avx
				if par {
					SetMaxProcs(4)
					parallelGemmThreshold, parallelL2Threshold = 1, 1
				}
				fn(t)
			})
		}
	}
}

func TestDgemmPropertyOddPrimeSizes(t *testing.T) {
	var shapes [][3]int
	for _, m := range propSizes {
		for _, n := range propSizes {
			for _, k := range propSizes {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	kernelPropConfigs(t, func(t *testing.T) { runGemmProperty(t, shapes) })
}

func TestDgemmPropertyBlockBoundaries(t *testing.T) {
	kernelPropConfigs(t, func(t *testing.T) { runGemmProperty(t, propEdgeShapes) })
}

// TestDgemmPropertyPaddedStride checks the blocked kernel against the naive
// one when all three matrices live in larger parent allocations (ld >
// rows), as every View-based call from the LAPACK layer does.
func TestDgemmPropertyPaddedStride(t *testing.T) {
	kernelPropConfigs(t, func(t *testing.T) {
		const m, n, k = 37, 29, 41
		const lda, ldb, ldc = m + 5, k + 3, m + 9
		const alpha, beta = 0.9, 0.4
		a := matrix.Random(lda, k, 51)
		b := matrix.Random(ldb, n, 52)
		c0 := matrix.Random(ldc, n, 53)
		want := c0.Clone()
		naiveGemm(NoTrans, NoTrans, m, n, k, alpha, a.Data, lda, b.Data, ldb, beta, want.Data, ldc)
		got := c0.Clone()
		Dgemm(NoTrans, NoTrans, m, n, k, alpha, a.Data, lda, b.Data, ldb, beta, got.Data, ldc)
		tol := 1e-12 * float64(k+1)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				w, g := want.At(i, j), got.At(i, j)
				if math.Abs(w-g) > tol*(math.Abs(w)+1) {
					t.Fatalf("padded-stride C(%d,%d) = %v, naive = %v", i, j, g, w)
				}
			}
		}
		// Rows below the logical m in each column are padding and must be
		// untouched.
		for j := 0; j < n; j++ {
			for i := m; i < ldc; i++ {
				if got.At(i, j) != c0.At(i, j) {
					t.Fatalf("Dgemm wrote past row %d into padding at (%d,%d)", m, i, j)
				}
			}
		}
	})
}

// Dgemv(NoTrans) kernel property: the AVX column-group kernel must be
// bitwise identical to the portable Go loop — not close, identical, NaN
// payloads included — because DgemvFT compares a strided Go primary against
// a contiguous shadow bit for bit, and every digest contract rests on it.

// gemvPropM are row counts around the kernel's 4- and 8-row vector steps:
// 1..9 and 4k±1.
var gemvPropM = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 17, 31, 33, 63, 65, 127, 129}

// gemvSpecials are the non-finite and signed-zero values sprinkled into A,
// x and y; the two NaNs carry different payloads so a swapped operand order
// would show.
var gemvSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7ff80000000dead1), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
}

// gemvPropInput builds one Dgemv(NoTrans) input: A is m×n with lda = m+1,
// x has stride incX with every third entry zero when zeros is set, and
// y has stride incY. specials is a bit mask (1: A, 2: x, 4: y) selecting
// which operands get gemvSpecials entries.
func gemvPropInput(m, n, incX, incY int, zeros bool, specials int) (a, x, y []float64) {
	seed := uint64(m*7919 + n*131 + incX*17 + incY*5 + specials)
	lda := m + 1
	a = matrix.Random(lda, n, seed).Data
	x = matrix.Random(n*incX, 1, seed+1).Data
	y = matrix.Random(m*incY, 1, seed+2).Data
	sprinkle := func(v []float64, every, off int) {
		for i := off; i < len(v); i += every {
			v[i] = gemvSpecials[(i/every)%len(gemvSpecials)]
		}
	}
	if specials&1 != 0 {
		sprinkle(a, 7, 3)
	}
	if specials&2 != 0 {
		sprinkle(x, 5*incX, 2*incX)
	}
	if specials&4 != 0 {
		sprinkle(y, 3*incY, incY)
	}
	if zeros {
		for j := 1; j < n; j += 3 {
			x[j*incX] = 0
		}
	}
	return a, x, y
}

// TestDgemvPropertyKernelBitwise runs Dgemv(NoTrans) under every kernel ×
// execution-path configuration (forced row shards start at unaligned i0)
// and requires each result to match the portable Go kernel on the serial
// contiguous path bit for bit, over row counts around the vector widths,
// nonzero-column counts of every residue mod 4, zero x entries, ±0 / NaN /
// Inf in A, x and y, incX ≠ 1, and the incY ≠ 1 fallback.
func TestDgemvPropertyKernelBitwise(t *testing.T) {
	const alpha, beta = 1.3, 0.75
	type gemvCase struct {
		m, n, incX, incY int
		zeros            bool
		specials         int
	}
	var cases []gemvCase
	residues := map[int]bool{}
	for _, m := range gemvPropM {
		for n := 1; n <= 10; n++ {
			for _, zeros := range []bool{false, true} {
				for _, inc := range [][2]int{{1, 1}, {2, 1}, {1, 3}} {
					for _, sp := range []int{0, 1, 2, 4, 7} {
						cases = append(cases, gemvCase{m, n, inc[0], inc[1], zeros, sp})
					}
				}
				nnz := n
				if zeros {
					nnz -= (n + 1) / 3
				}
				residues[nnz%4] = true
			}
		}
	}
	if len(residues) != 4 {
		t.Fatalf("nonzero-column counts cover residues %v mod 4, want all four", residues)
	}

	// Reference: the portable Go kernel, serial, into a contiguous y.
	origKernel := useAVXKernel
	origProcs := SetMaxProcs(1)
	useAVXKernel = false
	want := make([][]float64, len(cases))
	for ci, c := range cases {
		a, x, y := gemvPropInput(c.m, c.n, c.incX, c.incY, c.zeros, c.specials)
		w := make([]float64, c.m)
		for i := range w {
			w[i] = y[i*c.incY]
		}
		Dgemv(NoTrans, c.m, c.n, alpha, a, c.m+1, x, c.incX, beta, w, 1)
		want[ci] = w
	}
	useAVXKernel = origKernel
	SetMaxProcs(origProcs)

	kernelPropConfigs(t, func(t *testing.T) {
		checkGemvSkipsZeroColumns(t, alpha, beta)
		for ci, c := range cases {
			a, x, y := gemvPropInput(c.m, c.n, c.incX, c.incY, c.zeros, c.specials)
			Dgemv(NoTrans, c.m, c.n, alpha, a, c.m+1, x, c.incX, beta, y, c.incY)
			for i, w := range want[ci] {
				if g := y[i*c.incY]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%+v: y[%d] = %v (%#x), Go serial = %v (%#x)",
						c, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	})
}

// checkGemvSkipsZeroColumns pins the zero-column skip on its own (the
// bitwise comparison above cannot, since both kernels share it): columns
// whose x entry is zero are never multiplied through, so NaN, Inf and -0
// entries there leave y exactly as if the columns held finite values, and
// with x all zero y is just beta*y, -0 included.
func checkGemvSkipsZeroColumns(t *testing.T, alpha, beta float64) {
	t.Helper()
	const n = 9
	for _, m := range gemvPropM {
		for _, allZero := range []bool{false, true} {
			finite := matrix.Random(m, n, uint64(m)).Data
			poisoned := append([]float64(nil), finite...)
			x := matrix.Random(n, 1, uint64(m)+1).Data
			for j := range n {
				if allZero || j%3 == 1 {
					x[j] = 0
					for i := range m {
						poisoned[j*m+i] = gemvSpecials[(i+j)%len(gemvSpecials)]
					}
				}
			}
			y0 := matrix.Random(m, 1, uint64(m)+2).Data
			for i := 0; i < m; i += 2 {
				y0[i] = math.Copysign(0, -1)
			}
			want := append([]float64(nil), y0...)
			if allZero {
				for i := range want {
					want[i] *= beta
				}
			} else {
				Dgemv(NoTrans, m, n, alpha, finite, m, x, 1, beta, want, 1)
			}
			got := append([]float64(nil), y0...)
			Dgemv(NoTrans, m, n, alpha, poisoned, m, x, 1, beta, got, 1)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("m=%d allZero=%v: y[%d] = %v, want %v: a zero-x column reached y",
						m, allZero, i, got[i], want[i])
				}
			}
		}
	}
}
