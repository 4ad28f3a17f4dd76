package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/blas"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The fused-ABFT substrate study behind BENCH_blasft.json, in three parts:
//
//  1. Wall-clock overhead of DgemmFT over Dgemm on the host substrate, per
//     GEMM shape, min-of-reps (the acceptance bar is ≤8% at 512³ — the
//     checksum encode rides the packing and the verify reuses the
//     micro-kernel, so the overhead is a few percent, not the 2× of DMR).
//  2. The substrate's power-on self-test: planted faults in the packed
//     panels, the C tile, and the DMR'd Level-2 outputs must all be
//     detected (blas.FTSelfTest).
//  3. What the substrate buys the reduction: with Options.Substrate =
//     "fused", the multi-device FT schedule refreshes the panel slab's
//     checksum halo incrementally instead of re-encoding it, so the
//     modeled checksum_maintenance phase shrinks.

// BlasFTGemmCell is one GEMM shape of the overhead study. Seconds are the
// minimum over Reps interleaved plain/fused timings — min, not mean,
// because scheduler noise only ever adds time.
type BlasFTGemmCell struct {
	M int `json:"m"`
	N int `json:"n"`
	K int `json:"k"`
	// PlainSec / FusedSec are min-of-reps wall times for Dgemm / DgemmFT.
	PlainSec float64 `json:"plain_sec"`
	FusedSec float64 `json:"fused_sec"`
	// OverheadPct is 100·(FusedSec/PlainSec − 1); ModelOverheadPct is the
	// extra-flop model the simulated device charges (FTGemmOverheadFrac).
	OverheadPct      float64 `json:"overhead_pct"`
	ModelOverheadPct float64 `json:"model_overhead_pct"`
	// Checks is the row+column checksum comparisons one fused call runs.
	Checks int `json:"checks"`
	// GFLOPS of the fused call, for scale.
	FusedGFLOPS float64 `json:"fused_gflops"`
}

// BlasFTMaintenance compares the modeled checksum_maintenance phase of the
// multi-device FT reduction across substrates at one (N, NB, K) point.
type BlasFTMaintenance struct {
	N       int `json:"n"`
	NB      int `json:"nb"`
	Devices int `json:"devices"`
	// SweptSec / FusedSec are the modeled checksum_maintenance busy
	// seconds with the sweeps-only and fused substrates.
	SweptSec float64 `json:"swept_sec"`
	FusedSec float64 `json:"fused_sec"`
	// DropPct is 100·(1 − FusedSec/SweptSec).
	DropPct float64 `json:"drop_pct"`
}

// BlasFTRealRun records a small real-execution fused reduction proving
// the end-to-end wiring: every device BLAS call verified in-kernel, zero
// detections on a clean run.
type BlasFTRealRun struct {
	N       int `json:"n"`
	NB      int `json:"nb"`
	Devices int `json:"devices"`
	// SubstrateChecks / SubstrateDetections as the run reported them.
	SubstrateChecks     int `json:"substrate_checks"`
	SubstrateDetections int `json:"substrate_detections"`
}

// BlasFTArtifact is the committed BENCH_blasft.json.
type BlasFTArtifact struct {
	Machine Provenance       `json:"machine"`
	Reps    int              `json:"reps"`
	Gemm    []BlasFTGemmCell `json:"gemm"`
	// SelfTest is the planted-fault detection record; Passed must be true.
	SelfTest    blas.FTSelfTestResult `json:"self_test"`
	Maintenance BlasFTMaintenance     `json:"maintenance"`
	RealRun     BlasFTRealRun         `json:"real_run"`
}

// BlasFTShapes is the GEMM shape grid: the acceptance point (512³) plus
// the two shapes the reduction actually leans on (rank-nb trailing
// update, tall-skinny panel product).
var BlasFTShapes = [][3]int{
	{512, 512, 512},
	{1024, 1024, 32},
	{2048, 32, 512},
}

// BlasFT runs the substrate study: wall overhead per shape (min over reps,
// interleaved), the planted-fault self-test, and the modeled
// checksum_maintenance comparison at (N=512, NB=16, K=2).
func BlasFT(shapes [][3]int, reps int, params sim.Params) (*BlasFTArtifact, error) {
	art := &BlasFTArtifact{Machine: machine(), Reps: reps}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := matrix.Random(m, k, 1)
		b := matrix.Random(k, n, 2)
		c := matrix.New(m, n)
		cell := BlasFTGemmCell{
			M: m, N: n, K: k,
			PlainSec:         1e300,
			FusedSec:         1e300,
			ModelOverheadPct: 100 * blas.FTGemmOverheadFrac(m, n, k),
		}
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			cell.PlainSec = min(cell.PlainSec, time.Since(t0).Seconds())
			t0 = time.Now()
			rep, err := blas.DgemmFT(blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			cell.FusedSec = min(cell.FusedSec, time.Since(t0).Seconds())
			if err != nil {
				return nil, fmt.Errorf("DgemmFT %dx%dx%d: spurious detection: %w (max residual %.3g)", m, n, k, err, rep.MaxResidual)
			}
			cell.Checks = rep.Checks
		}
		cell.OverheadPct = 100 * (cell.FusedSec/cell.PlainSec - 1)
		cell.FusedGFLOPS = 2 * float64(m) * float64(n) * float64(k) / cell.FusedSec / 1e9
		art.Gemm = append(art.Gemm, cell)
	}

	art.SelfTest = blas.FTSelfTest()

	mnt := BlasFTMaintenance{N: 512, NB: 16, Devices: 2}
	for _, sub := range []string{ft.SubstrateSwept, ft.SubstrateFused} {
		a := matrix.New(mnt.N, mnt.N)
		reg := obs.NewRegistry()
		if _, err := ft.Reduce(a, ft.Options{NB: mnt.NB, Devices: pool(params, gpu.CostOnly, mnt.Devices), Substrate: sub, Obs: reg}); err != nil {
			return nil, fmt.Errorf("ft N=%d K=%d substrate=%s: %w", mnt.N, mnt.Devices, sub, err)
		}
		sec := obs.SumBy(reg, "phase_seconds", "phase")["checksum_maintenance"]
		if sub == ft.SubstrateFused {
			mnt.FusedSec = sec
		} else {
			mnt.SweptSec = sec
		}
	}
	if mnt.SweptSec > 0 {
		mnt.DropPct = 100 * (1 - mnt.FusedSec/mnt.SweptSec)
	}
	art.Maintenance = mnt

	// Cost-only devices never execute kernels, so the check counters above
	// stay zero; a small real-execution run records the live wiring.
	rr := BlasFTRealRun{N: 192, NB: 16, Devices: 2}
	res, err := ft.Reduce(matrix.Random(rr.N, rr.N, 3), ft.Options{NB: rr.NB, Devices: pool(params, gpu.Real, rr.Devices), Substrate: ft.SubstrateFused})
	if err != nil {
		return nil, fmt.Errorf("real fused run N=%d K=%d: %w", rr.N, rr.Devices, err)
	}
	rr.SubstrateChecks = res.SubstrateChecks
	rr.SubstrateDetections = res.SubstrateDetections
	art.RealRun = rr
	return art, nil
}

// BlasFTReport prints the study as a table.
func BlasFTReport(w io.Writer, art *BlasFTArtifact) {
	fmt.Fprintf(w, "Fused-ABFT BLAS substrate study (GOMAXPROCS=%d, min of %d reps)\n", art.Machine.GOMAXPROCS, art.Reps)
	fmt.Fprintf(w, "%-16s %12s %12s %10s %10s %8s %9s\n",
		"gemm m×n×k", "plain", "fused", "overhead", "model", "checks", "GFLOP/s")
	for _, c := range art.Gemm {
		fmt.Fprintf(w, "%-16s %11.3fms %11.3fms %9.2f%% %9.2f%% %8d %9.1f\n",
			fmt.Sprintf("%dx%dx%d", c.M, c.N, c.K),
			1e3*c.PlainSec, 1e3*c.FusedSec, c.OverheadPct, c.ModelOverheadPct,
			c.Checks, c.FusedGFLOPS)
	}
	st := art.SelfTest
	fmt.Fprintf(w, "self-test: packed=%v tile=%v gemv=%v ger=%v (%d gemm checks, %d DMR checks) — passed=%v\n",
		st.GemmPacked, st.GemmTile, st.Gemv, st.Ger, st.GemmChecks, st.DMRChecks, st.Passed())
	m := art.Maintenance
	fmt.Fprintf(w, "checksum_maintenance, FT N=%d nb=%d K=%d (modeled): swept %.4fms, fused %.4fms — %.1f%% drop\n",
		m.N, m.NB, m.Devices, 1e3*m.SweptSec, 1e3*m.FusedSec, m.DropPct)
	rr := art.RealRun
	fmt.Fprintf(w, "real fused run, FT N=%d nb=%d K=%d: %d in-kernel checks, %d detections\n",
		rr.N, rr.NB, rr.Devices, rr.SubstrateChecks, rr.SubstrateDetections)
}

// BlasShape is one GEMM shape of the host-BLAS catalogue, one per shape
// class the reduction produces (DESIGN.md §Host BLAS).
type BlasShape struct {
	Shape string `json:"shape"`
	M     int    `json:"m"`
	N     int    `json:"n"`
	K     int    `json:"k"`
	// ParallelTasks is how many independent MC×NC blocks the parallel
	// Dgemm splits the product into.
	ParallelTasks int `json:"parallel_tasks"`
}

// BlasCatalog is the committed BENCH_blas.json: the Dgemm blocking and
// the parallel task count per shape. It holds no timings, so it changes
// only when the blocking does; the measured GFLOP/s are logged by
// TestBenchBlasJSON in internal/blas and never committed.
type BlasCatalog struct {
	BlockMC int         `json:"block_mc"`
	BlockNC int         `json:"block_nc"`
	BlockKC int         `json:"block_kc"`
	Shapes  []BlasShape `json:"shapes"`
}

// NewBlasCatalog builds the catalogue from the blas package's blocking.
func NewBlasCatalog() *BlasCatalog {
	k := blas.Kernels()
	cat := &BlasCatalog{BlockMC: k.MC, BlockNC: k.NC, BlockKC: k.KC}
	for _, s := range []BlasShape{
		{Shape: "square_512", M: 512, N: 512, K: 512},
		{Shape: "tall_skinny_panel_4096x8x128", M: 4096, N: 8, K: 128},
		{Shape: "rank_nb_trailing_1024x1024x32", M: 1024, N: 1024, K: 32},
	} {
		s.ParallelTasks = ((s.M + k.MC - 1) / k.MC) * ((s.N + k.NC - 1) / k.NC)
		cat.Shapes = append(cat.Shapes, s)
	}
	return cat
}

// BlasCatalogReport prints the catalogue as a table.
func BlasCatalogReport(w io.Writer, cat *BlasCatalog) {
	fmt.Fprintf(w, "Host Dgemm blocking MC=%d NC=%d KC=%d\n", cat.BlockMC, cat.BlockNC, cat.BlockKC)
	for _, s := range cat.Shapes {
		fmt.Fprintf(w, "%-32s %5dx%-5dx%-5d %4d parallel tasks\n", s.Shape, s.M, s.N, s.K, s.ParallelTasks)
	}
}
