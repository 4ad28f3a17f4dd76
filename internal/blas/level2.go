package blas

// Level-2 BLAS: matrix-vector operations over column-major storage.
// Dgemv and Dger dispatch onto the shared worker pool above
// parallelL2Threshold flops: Dgemv shards rows of y (NoTrans) or columns
// of A (Trans), Dger shards columns of A. Shards write disjoint output
// ranges with unchanged per-element operation order, so results are
// bitwise identical to serial execution.

// parallelL2Threshold is the flop count (2mn) above which the level-2
// routines shard across the pool; a variable so tests can force the
// parallel path.
var parallelL2Threshold = 1 << 20

// Dgemv computes y := alpha*op(A)*x + beta*y where A is m×n.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkMatrix("Dgemv", m, n, lda, a)
	lenX, lenY := n, m
	if trans == Trans {
		lenX, lenY = m, n
	}
	checkVector("Dgemv", lenX, x, incX)
	checkVector("Dgemv", lenY, y, incY)
	if m == 0 || n == 0 {
		return
	}
	// y := beta*y
	if beta != 1 {
		if beta == 0 {
			for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
				y[iy] = 0
			}
		} else {
			Dscal(lenY, beta, y, incY)
		}
	}
	if alpha == 0 {
		return
	}
	if done := opTimer("gemv", 2*float64(m)*float64(n)); done != nil {
		defer done()
	}
	p := procs()
	parallel := p > 1 && 2*m*n >= parallelL2Threshold
	if trans == NoTrans {
		if parallel && m > 1 {
			chunks := min(p, m)
			parallelFor(chunks, func(w int) {
				gemvNoTransRows(m, n, alpha, a, lda, x, incX, y, incY, w*m/chunks, (w+1)*m/chunks)
			})
			return
		}
		gemvNoTransRows(m, n, alpha, a, lda, x, incX, y, incY, 0, m)
		return
	}
	if parallel && n > 1 {
		chunks := min(p, n)
		parallelFor(chunks, func(w int) {
			gemvTransCols(m, n, alpha, a, lda, x, incX, y, incY, w*n/chunks, (w+1)*n/chunks)
		})
		return
	}
	gemvTransCols(m, n, alpha, a, lda, x, incX, y, incY, 0, n)
}

// gemvNoTransRows accumulates rows [i0, i1) of y += alpha*A*x, one axpy
// segment per column of A. Columns whose t = alpha*x[j] is zero are skipped,
// never multiplied through, so NaN, Inf and -0 entries of such a column do
// not reach y. With contiguous y on an AVX2 machine the nonzero columns go
// four at a time through gemvNoTrans4AVX, which keeps each element's
// operation order and rounding, so the result is bit-identical either way;
// the 0-3 leftover columns take the Go loop.
func gemvNoTransRows(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64, incY, i0, i1 int) {
	var (
		cols [4][]float64
		ts   [4]float64
		k    int
	)
	for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
		t := alpha * x[jx]
		if t == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		switch {
		case incY != 1:
			// Same form as axpyGemv, so the strided and contiguous paths
			// agree bit for bit (DgemvFT compares the two).
			for i, iy := i0, i0*incY; i < i1; i, iy = i+1, iy+incY {
				y[iy] = float64(t*col[i]) + y[iy]
			}
		case useAVXKernel:
			cols[k], ts[k] = col[i0:i1], t
			if k++; k == 4 {
				gemvNoTrans4AVX(y[i0:i1], cols[0], cols[1], cols[2], cols[3], &ts)
				k = 0
			}
		default:
			axpyGemv(y[i0:i1], t, col[i0:i1])
		}
	}
	for q := range k {
		axpyGemv(y[i0:i1], ts[q], cols[q])
	}
}

// axpyGemv is the portable column step of gemvNoTransRows: y += t*c. The
// conversion rounds the product before the add, so no build (GOAMD64=v3
// included) fuses it into an FMA. Written product first, the compiled add
// takes the product as its first operand, as gemvNoTrans4AVX does, so
// even the surviving NaN payload agrees with the AVX path;
// TestDgemvPropertyKernelBitwise pins both.
func axpyGemv(y []float64, t float64, c []float64) {
	c = c[:len(y)]
	for i := range y {
		y[i] = float64(t*c[i]) + y[i]
	}
}

// gemvTransCols accumulates elements [j0, j1) of y += alpha*Aᵀ*x, one dot
// per column of A.
func gemvTransCols(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64, incY, j0, j1 int) {
	for j, jy := j0, j0*incY; j < j1; j, jy = j+1, jy+incY {
		col := a[j*lda : j*lda+m]
		sum := 0.0
		if incX == 1 {
			for i := 0; i < m; i++ {
				sum += col[i] * x[i]
			}
		} else {
			for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
				sum += col[i] * x[ix]
			}
		}
		y[jy] += alpha * sum
	}
}

// Dger computes the rank-1 update A := alpha*x*yᵀ + A where A is m×n.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkMatrix("Dger", m, n, lda, a)
	checkVector("Dger", m, x, incX)
	checkVector("Dger", n, y, incY)
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	if done := opTimer("ger", 2*float64(m)*float64(n)); done != nil {
		defer done()
	}
	p := procs()
	if p > 1 && 2*m*n >= parallelL2Threshold && n > 1 {
		chunks := min(p, n)
		parallelFor(chunks, func(w int) {
			gerCols(m, n, alpha, x, incX, y, incY, a, lda, w*n/chunks, (w+1)*n/chunks)
		})
		return
	}
	gerCols(m, n, alpha, x, incX, y, incY, a, lda, 0, n)
}

// gerCols applies the rank-1 update to columns [j0, j1) of A.
func gerCols(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda, j0, j1 int) {
	for j, jy := j0, j0*incY; j < j1; j, jy = j+1, jy+incY {
		t := alpha * y[jy]
		if t == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
			col[i] += t * x[ix]
		}
	}
}

// Dtrmv computes x := op(A)*x where A is an n×n triangular matrix.
func Dtrmv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	checkMatrix("Dtrmv", n, n, lda, a)
	checkVector("Dtrmv", n, x, incX)
	if n == 0 {
		return
	}
	nonUnit := diag == NonUnit
	switch {
	case trans == NoTrans && uplo == Upper:
		// x := U*x, forward over columns.
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			t := x[jx]
			if t != 0 {
				col := a[j*lda:]
				for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
					x[ix] += t * col[i]
				}
				if nonUnit {
					x[jx] = t * col[j]
				}
			} else if nonUnit {
				x[jx] = 0
			}
		}
	case trans == NoTrans && uplo == Lower:
		// x := L*x, backward over columns.
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			t := x[jx]
			col := a[j*lda:]
			if t != 0 {
				for i, ix := n-1, (n-1)*incX; i > j; i, ix = i-1, ix-incX {
					x[ix] += t * col[i]
				}
				if nonUnit {
					x[jx] = t * col[j]
				}
			} else if nonUnit {
				x[jx] = 0
			}
		}
	case trans == Trans && uplo == Upper:
		// x := Uᵀ*x, backward.
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			t := 0.0
			if nonUnit {
				t = x[jx] * col[j]
			} else {
				t = x[jx]
			}
			for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
				t += col[i] * x[ix]
			}
			x[jx] = t
		}
	default: // trans == Trans && uplo == Lower
		// x := Lᵀ*x, forward.
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			t := 0.0
			if nonUnit {
				t = x[jx] * col[j]
			} else {
				t = x[jx]
			}
			for i, ix := j+1, (j+1)*incX; i < n; i, ix = i+1, ix+incX {
				t += col[i] * x[ix]
			}
			x[jx] = t
		}
	}
}

// Dtrsv solves op(A)*x = b for x in place, where A is n×n triangular and x
// holds b on entry.
func Dtrsv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	checkMatrix("Dtrsv", n, n, lda, a)
	checkVector("Dtrsv", n, x, incX)
	if n == 0 {
		return
	}
	nonUnit := diag == NonUnit
	switch {
	case trans == NoTrans && uplo == Upper:
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			if nonUnit {
				x[jx] /= col[j]
			}
			t := x[jx]
			for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
				x[ix] -= t * col[i]
			}
		}
	case trans == NoTrans && uplo == Lower:
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			if nonUnit {
				x[jx] /= col[j]
			}
			t := x[jx]
			for i, ix := j+1, (j+1)*incX; i < n; i, ix = i+1, ix+incX {
				x[ix] -= t * col[i]
			}
		}
	case trans == Trans && uplo == Upper:
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			t := x[jx]
			for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
				t -= col[i] * x[ix]
			}
			if nonUnit {
				t /= col[j]
			}
			x[jx] = t
		}
	default: // trans == Trans && uplo == Lower
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			t := x[jx]
			for i, ix := j+1, (j+1)*incX; i < n; i, ix = i+1, ix+incX {
				t -= col[i] * x[ix]
			}
			if nonUnit {
				t /= col[j]
			}
			x[jx] = t
		}
	}
}
