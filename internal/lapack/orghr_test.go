package lapack

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// dorghrUnblocked is the reference Q formation: one Dlarf rank-1 pass per
// reflector, last to first, each on the trailing block of Q.
func dorghrUnblocked(n int, a []float64, lda int, tau []float64) *matrix.Matrix {
	q := matrix.Identity(n)
	work := make([]float64, n)
	v := make([]float64, n)
	for i := n - 3; i >= 0; i-- {
		m := n - 1 - i
		v[0] = 1
		copy(v[1:m], a[i*lda+i+2:i*lda+n])
		sub := q.View(i+1, i+1, m, m)
		Dlarf(blas.Left, m, m, v[:m], 1, tau[i], sub.Data, sub.Stride, work)
	}
	return q
}

// orghrInput is a packed Hessenberg reduction: its reflectors and factors.
type orghrInput struct {
	name   string
	packed *matrix.Matrix
	tau    []float64
}

func reducedInput(name string, a *matrix.Matrix) orghrInput {
	n := a.Rows
	packed := a.Clone()
	tau := make([]float64, max(n-1, 1))
	Dgehrd(n, 8, packed.Data, packed.Stride, tau)
	return orghrInput{name, packed, tau}
}

// orghrInputs covers every block-boundary case of Dorghr plus inputs with
// zero-τ reflectors: factors zeroed after the reduction (identity
// reflectors whose vectors are still non-zero), and a matrix whose
// columns are already reduced, so Dlarfg itself returns τ = 0.
func orghrInputs() []orghrInput {
	var in []orghrInput
	for _, n := range []int{0, 1, 2, 3, orghrNB - 1, orghrNB, orghrNB + 1, orghrNB + 2, 97, 257} {
		in = append(in, reducedInput("random", matrix.Random(n, n, uint64(n)+1)))
	}
	for _, n := range []int{orghrNB + 2, 97} {
		z := reducedInput("tau zeroed", matrix.Random(n, n, uint64(n)+7))
		for i := 0; i < n-1; i += 3 {
			z.tau[i] = 0
		}
		in = append(in, z)
	}
	// Upper triangular except every fourth column, which is full: the
	// triangular columns' reflectors have zero tails.
	n := 70
	a := matrix.Random(n, n, 5)
	for j := 0; j < n; j++ {
		if j%4 == 3 {
			continue
		}
		for i := j + 1; i < n; i++ {
			a.Set(i, j, 0)
		}
	}
	in = append(in, reducedInput("natural zero tau", a))
	return in
}

func float64Bytes(x []float64) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, x)
	return b.Bytes()
}

func TestDorghrBlockedMatchesUnblocked(t *testing.T) {
	for _, in := range orghrInputs() {
		n := in.packed.Rows
		packedBefore := float64Bytes(in.packed.Data)
		tauBefore := float64Bytes(in.tau)
		if strings.Contains(in.name, "zero") && !slices.Contains(in.tau[:max(n-2, 0)], 0) {
			t.Fatalf("%s n=%d: no zero-τ reflector", in.name, n)
		}

		q := Dorghr(n, in.packed.Data, in.packed.Stride, in.tau)
		if !bytes.Equal(float64Bytes(in.packed.Data), packedBefore) || !bytes.Equal(float64Bytes(in.tau), tauBefore) {
			t.Fatalf("%s n=%d: Dorghr wrote to its inputs", in.name, n)
		}
		ref := dorghrUnblocked(n, in.packed.Data, in.packed.Stride, in.tau)
		tol := 10 * float64(max(n, 1)) * 0x1p-52
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if d := math.Abs(q.At(i, j) - ref.At(i, j)); d > tol {
					t.Fatalf("%s n=%d: Q(%d,%d) = %v, reference %v (|Δ| %.2e > %.2e)",
						in.name, n, i, j, q.At(i, j), ref.At(i, j), d, tol)
				}
			}
		}
		if r := OrthogonalityResidual(q); r > 1e-13 {
			t.Fatalf("%s n=%d: ‖QQᵀ−I‖₁/N = %v", in.name, n, r)
		}
	}
}

// Dorghr only reads its inputs, so concurrent calls on one shared
// reduction (as results shared across goroutines make them) race on
// nothing and agree bit for bit.
func TestDorghrConcurrentSharedInput(t *testing.T) {
	in := reducedInput("random", matrix.Random(97, 97, 3))
	n := in.packed.Rows
	want := float64Bytes(Dorghr(n, in.packed.Data, in.packed.Stride, in.tau).Data)
	var wg sync.WaitGroup
	got := make([][]byte, 2)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = float64Bytes(Dorghr(n, in.packed.Data, in.packed.Stride, in.tau).Data)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !bytes.Equal(got[g], want) {
			t.Fatalf("goroutine %d: Q differs from the serial call", g)
		}
	}
}
