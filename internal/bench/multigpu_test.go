package bench

import "testing"

// TestBenchMultiGPUJSON runs the study behind BENCH_multigpu.json — the modeled
// device-scaling curve of the block-column-sharded trailing update at
// the acceptance size (N=2048, nb=16) — and enforces the scaling bar:
// the K=4 pool must cut the baseline's makespan by ≥2× versus K=1.
// (The bar was 2.5× before the lookahead schedule; lookahead hides the
// serial panel factorization that used to dominate K=1, so the K=1
// baseline got faster and the ratio compressed even though absolute
// makespans improved at every K.) Cost-only runs are deterministic;
// TestCommittedArtifacts checks the committed file against a fresh run.
func TestBenchMultiGPUJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("N=2048 cost-only sweep: skipped in -short mode")
	}
	art := runArtifact[*MultiGPUArtifact](t, "multigpu")
	if len(art.Rows) != 3 || art.Rows[0].Devices != 1 {
		t.Fatalf("unexpected rows: %+v", art.Rows)
	}
	k4 := art.Rows[2]
	if k4.HybridSpeedup < 2.0 {
		t.Errorf("K=4 hybrid speedup %.2fx below the 2x bar (K=1 %.4fs, K=4 %.4fs)",
			k4.HybridSpeedup, art.Rows[0].HybridSimSeconds, k4.HybridSimSeconds)
	}
	if k4.FTSpeedup < 2.0 {
		t.Errorf("K=4 FT speedup %.2fx below the 2x bar", k4.FTSpeedup)
	}
	for _, r := range art.Rows {
		if r.FTSimSeconds <= r.HybridSimSeconds {
			t.Errorf("K=%d: FT makespan %.4fs not above hybrid %.4fs (protection is not free)",
				r.Devices, r.FTSimSeconds, r.HybridSimSeconds)
		}
	}
}
