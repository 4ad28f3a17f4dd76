package blas

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/matrix"
)

// Substrate benchmarks for the blocked BLAS, one per shape class the
// Hessenberg reduction actually produces (see DESIGN.md §Host BLAS):
//
//   - square:       the worst-case dense product, pure throughput
//   - tall-skinny:  the per-panel update op(A)·V with m >> n (the shape the
//     pre-blocking Dgemm could barely parallelize)
//   - rank-nb:      the trailing-matrix update C -= Y·Wᵀ with k = nb
//
// Each benchmark reports achieved GFLOP/s; TestBenchBlasJSON logs the
// blocked kernel against the kept-private pre-blocking kernel (naiveGemm)
// shape by shape. The same shapes make up the BENCH_blas.json catalogue
// (internal/bench).

type gemmShape struct {
	name    string
	m, n, k int
}

var benchShapes = []gemmShape{
	{"square_512", 512, 512, 512},
	{"tall_skinny_panel_4096x8x128", 4096, 8, 128},
	{"rank_nb_trailing_1024x1024x32", 1024, 1024, 32},
}

func benchGemm(b *testing.B, m, n, k int, f func(m, n, k int, a, bb, c *matrix.Matrix)) {
	a := matrix.Random(m, k, 1)
	bb := matrix.Random(k, n, 2)
	c := matrix.New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(m, n, k, a, bb, c)
	}
	gflops := 2 * float64(m) * float64(n) * float64(k) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "GFLOP/s")
}

func BenchmarkDgemmSquare512(b *testing.B) {
	s := benchShapes[0]
	benchGemm(b, s.m, s.n, s.k, func(m, n, k int, a, bb, c *matrix.Matrix) {
		Dgemm(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	})
}

func BenchmarkDgemmTallSkinnyPanel(b *testing.B) {
	s := benchShapes[1]
	benchGemm(b, s.m, s.n, s.k, func(m, n, k int, a, bb, c *matrix.Matrix) {
		Dgemm(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	})
}

func BenchmarkDgemmRankNBTrailing(b *testing.B) {
	s := benchShapes[2]
	benchGemm(b, s.m, s.n, s.k, func(m, n, k int, a, bb, c *matrix.Matrix) {
		Dgemm(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	})
}

// BenchmarkDgemmFTSquare512 is the fused-ABFT variant of the square
// shape; the gap to BenchmarkDgemmSquare512 is the substrate's wall
// overhead (bounded at ≤8% by TestBenchBlasFTJSON).
func BenchmarkDgemmFTSquare512(b *testing.B) {
	s := benchShapes[0]
	benchGemm(b, s.m, s.n, s.k, func(m, n, k int, a, bb, c *matrix.Matrix) {
		if _, err := DgemmFT(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkDgemmNaive512 is the pre-blocking kernel on the square shape —
// the baseline TestBenchBlasJSON measures its speedups against.
func BenchmarkDgemmNaive512(b *testing.B) {
	s := benchShapes[0]
	benchGemm(b, s.m, s.n, s.k, func(m, n, k int, a, bb, c *matrix.Matrix) {
		naiveGemm(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	})
}

func BenchmarkDgemv(b *testing.B) {
	const m, n = 2048, 2048
	a := matrix.Random(m, n, 3)
	x := matrix.Random(n, 1, 4)
	y := make([]float64, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemv(NoTrans, m, n, 1, a.Data, a.Stride, x.Data, 1, 0, y, 1)
	}
	b.ReportMetric(2*float64(m)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkDsyr2k(b *testing.B) {
	const n, k = 1024, 32
	a := matrix.Random(n, k, 5)
	bb := matrix.Random(n, k, 6)
	c := matrix.New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dsyr2k(Lower, NoTrans, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	}
	b.ReportMetric(2*float64(n)*float64(n)*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// timeGemm returns the best-of-three GFLOP/s of f on an m×n×k product
// (one untimed warm-up run first).
func timeGemm(m, n, k int, f func()) float64 {
	f()
	best := time.Duration(1<<62 - 1)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return 2 * float64(m) * float64(n) * float64(k) / best.Seconds() / 1e9
}

// TestBenchBlasJSON measures the blocked Dgemm against the kept-private
// pre-blocking kernel (naiveGemm) on every catalogue shape and logs the
// GFLOP/s: serial blocked, parallel, and how many independent MC×NC tasks
// the parallel path offers versus the min(p, n) column chunks of the
// pre-blocking path. Nothing is written: the machine-independent shape
// catalogue is BENCH_blas.json (go run ./cmd/experiments -exp blas), and
// wall-clock GFLOP/s are facts about the machine that ran the test.
func TestBenchBlasJSON(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock measurement: skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("wall-clock measurement: skipped in -short mode")
	}

	p := runtime.GOMAXPROCS(0)
	t.Logf("GOMAXPROCS=%d NumCPU=%d AVX2 kernels=%v", p, runtime.NumCPU(), useAVXKernel)
	for i, s := range benchShapes {
		a := matrix.Random(s.m, s.k, 1)
		bb := matrix.Random(s.k, s.n, 2)
		c := matrix.New(s.m, s.n)

		naive := timeGemm(s.m, s.n, s.k, func() {
			naiveGemm(NoTrans, NoTrans, s.m, s.n, s.k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
		})
		orig := SetMaxProcs(1)
		serial := timeGemm(s.m, s.n, s.k, func() {
			Dgemm(NoTrans, NoTrans, s.m, s.n, s.k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
		})
		SetMaxProcs(p)
		parallel := timeGemm(s.m, s.n, s.k, func() {
			Dgemm(NoTrans, NoTrans, s.m, s.n, s.k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
		})
		SetMaxProcs(orig)

		tasks := ((s.m + gemmMC - 1) / gemmMC) * ((s.n + gemmNC - 1) / gemmNC)
		t.Logf("%-30s naive %6.2f  blocked %6.2f  parallel %6.2f GFLOP/s  %.2fx  %d tasks (was %d chunks)",
			s.name, naive, serial, parallel, parallel/naive, tasks, min(p, s.n))

		// The acceptance bar for this substrate: the blocked kernel must
		// beat the pre-blocking kernel by ≥2× on the square shape.
		if i == 0 && parallel/naive < 2 {
			t.Errorf("square-shape speedup %.2fx below the 2x bar (naive %.2f, parallel %.2f GFLOP/s)",
				parallel/naive, naive, parallel)
		}
	}
}
