// Package blas implements the subset of the BLAS (Basic Linear Algebra
// Subprograms) needed by the Hessenberg reduction and its fault-tolerant
// variant, in Go over column-major storage. On amd64 with AVX2 two kernels
// are hand-written assembly, chosen once from CPUID: the Dgemm
// micro-kernel and the NoTrans Dgemv column-group kernel. Everywhere else
// portable Go kernels take over.
//
// The routines follow the netlib reference semantics: the same argument
// conventions (dimensions first, then alpha, then matrix/leading-dimension
// pairs), the same quick-return rules for zero dimensions and alpha==0, and
// the same in-place update orders for the triangular routines. Matching the
// reference exactly matters here because the LAPACK ports in
// internal/lapack, and the checksum-maintenance proofs of the paper, assume
// those semantics.
//
// Performance architecture: Dgemm is a BLIS-style blocked kernel — MC/KC/NC
// cache blocking over packed panels (pack.go), a register-blocked MR×NR
// micro-kernel unique across all four transpose cases (microkernel.go) —
// and Dgemv(NoTrans) with contiguous y applies the nonzero columns of A
// four at a time through a vector kernel (level2_amd64.s). That kernel
// rounds every product and sum separately (no FMA), keeps each element's
// operation order, and still skips columns whose alpha*x[j] is zero, so its
// results are bit-identical to the Go loop, NaN payloads included; DgemvFT
// relies on that when it compares a strided primary against a contiguous
// shadow. The compute-heavy routines (Dgemm, Dgemv, Dger, Dsyr2k, Dtrmm)
// shard large problems onto one shared bounded worker pool (pool.go).
// Parallel shards write disjoint outputs with unchanged per-element
// operation order, so results are bitwise identical at every SetMaxProcs
// setting. SetObs optionally records achieved host GFLOP/s into the
// observability registry.
package blas

import "fmt"

// Transpose selects op(A) for the matrix-multiply routines.
type Transpose int

const (
	// NoTrans selects op(A) = A.
	NoTrans Transpose = iota
	// Trans selects op(A) = Aᵀ.
	Trans
)

func (t Transpose) String() string {
	if t == NoTrans {
		return "NoTrans"
	}
	return "Trans"
}

// Side selects whether the triangular matrix appears on the left or right.
type Side int

const (
	// Left means B := alpha * op(A) * B.
	Left Side = iota
	// Right means B := alpha * B * op(A).
	Right
)

// Uplo selects the triangle of a triangular matrix that is referenced.
type Uplo int

const (
	// Upper references the upper triangle.
	Upper Uplo = iota
	// Lower references the lower triangle.
	Lower
)

// Diag states whether a triangular matrix has an implicit unit diagonal.
type Diag int

const (
	// NonUnit reads the stored diagonal.
	NonUnit Diag = iota
	// Unit assumes a diagonal of ones and does not read the stored one.
	Unit
)

func badDim(routine string, args ...interface{}) {
	panic(fmt.Sprintf("blas: %s: invalid argument %v", routine, args))
}

func checkMatrix(routine string, r, c, ld int, a []float64) {
	if r < 0 || c < 0 {
		badDim(routine, r, c)
	}
	if r > 0 && ld < r {
		badDim(routine, "ld", ld, "rows", r)
	}
	if r > 0 && c > 0 && len(a) < ld*(c-1)+r {
		badDim(routine, "short slice", len(a), "need", ld*(c-1)+r)
	}
}
