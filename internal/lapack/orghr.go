package lapack

import (
	"repro/internal/blas"

	"repro/internal/matrix"
)

// orghrNB is Dorghr's block size: how many reflectors one compact-WY
// block reflector I - V·T·Vᵀ gathers.
const orghrNB = 32

// Dorghr explicitly forms the n×n orthogonal matrix Q of the Hessenberg
// reduction Qᵀ A Q = H from the Householder vectors stored below the first
// subdiagonal of a (as left by Dgehrd/Dgehd2) and the scalar factors tau.
//
// Q = H(0)·H(1)···H(n-3); reflector i acts on rows/columns i+1..n-1.
// The reflectors are applied in blocks of orghrNB, from the last block
// to the first, in compact WY form (Dlarft, then one Dlarfb on the
// trailing block of Q), so the work runs in Dgemm. Neither a nor tau is
// written: each block's vectors are copied into a private panel first,
// so concurrent calls on shared inputs are safe.
func Dorghr(n int, a []float64, lda int, tau []float64) *matrix.Matrix {
	q := matrix.Identity(n)
	k := n - 2 // number of reflectors
	if k <= 0 {
		return q
	}
	nb := min(orghrNB, k)
	v := make([]float64, (n-1)*nb)
	t := make([]float64, nb*nb)
	work := make([]float64, (n-1)*nb)
	for j := (k - 1) / nb * nb; j >= 0; j -= nb {
		kb := min(nb, k-j)
		// The block's reflectors act on rows/columns j+1..n-1 of Q. Copy
		// them into the m×kb panel V: column c holds reflector j+c below
		// its implicit unit entry at row c (Dlarft and Dlarfb read only
		// the strictly lower part).
		m := n - 1 - j
		for c := 0; c < kb; c++ {
			i := j + c
			copy(v[c*m+c+1:(c+1)*m], a[i*lda+i+2:i*lda+n])
		}
		Dlarft(m, kb, v, m, tau[j:], t, nb)
		sub := q.View(j+1, j+1, m, m)
		Dlarfb(blas.Left, blas.NoTrans, m, m, kb, v, m, t, nb, sub.Data, sub.Stride, work, m)
	}
	return q
}

// HessFromPacked extracts the upper Hessenberg matrix H from the packed
// output of Dgehrd (zeroing the Householder-vector storage below the first
// subdiagonal).
func HessFromPacked(n int, a []float64, lda int) *matrix.Matrix {
	h := matrix.New(n, n)
	for j := 0; j < n; j++ {
		top := min(j+2, n)
		for i := 0; i < top; i++ {
			h.Set(i, j, a[j*lda+i])
		}
	}
	return h
}
