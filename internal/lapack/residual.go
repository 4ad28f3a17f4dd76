package lapack

import (
	"repro/internal/blas"
	"repro/internal/matrix"
)

// FactorizationResidual returns the paper's backward-error metric
//
//	r = ‖A − Q·H·Qᵀ‖₁ / (N·‖A‖₁)
//
// used in Table II to compare the fault-tolerant and fault-prone
// reductions.
func FactorizationResidual(a, q, h *matrix.Matrix) float64 {
	n := a.Rows
	if n == 0 {
		return 0
	}
	// tmp := Q·H ; rec := tmp·Qᵀ
	tmp := matrix.New(n, n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, q.Data, q.Stride, h.Data, h.Stride, 0, tmp.Data, tmp.Stride)
	rec := matrix.New(n, n)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, tmp.Data, tmp.Stride, q.Data, q.Stride, 0, rec.Data, rec.Stride)
	// rec := A − rec in place: one n×n buffer fewer than a.Sub(rec).
	for j := 0; j < n; j++ {
		aj, rj := a.Col(j), rec.Col(j)
		for i := range rj {
			rj[i] = aj[i] - rj[i]
		}
	}
	num := rec.Norm1()
	den := float64(n) * a.Norm1()
	if den == 0 {
		return num
	}
	return num / den
}

// OrthogonalityResidual returns the paper's Table III metric
//
//	r = ‖Q·Qᵀ − I‖₁ / N.
func OrthogonalityResidual(q *matrix.Matrix) float64 {
	n := q.Rows
	if n == 0 {
		return 0
	}
	qqt := matrix.New(n, n)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, q.Data, q.Stride, q.Data, q.Stride, 0, qqt.Data, qqt.Stride)
	for i := 0; i < n; i++ {
		qqt.Add(i, i, -1)
	}
	return qqt.Norm1() / float64(n)
}
