package bench

import "testing"

// TestBenchThroughputJSON runs the batched small-N throughput study
// behind BENCH_throughput.json and enforces its acceptance bars:
//
//   - fractional leases (4 lanes/device) deliver ≥2× the modeled
//     jobs/sec of whole-device leases at the largest size (N=256),
//     where the lane model's engine-utilization ceiling is ~2.7×;
//   - the two lease granularities serve bit-identical results (the
//     digest sets are compared inside Throughput — a drift is an error,
//     not a failed bar);
//   - a cache hit serves the identical job ≥10× faster (wall) than
//     recomputing it, with the hit's digest matching the miss's.
//
// The modeled bars are deterministic (virtual-clock arithmetic). The
// cache bar is wall-clock on a shared host, so — as in the fused-GEMM
// study — an under-bar reading earns up to three fresh measurement
// windows; under -race the wall bar is skipped.
func TestBenchThroughputJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("serves ~100 reductions through the HTTP stack: skipped in -short mode")
	}
	art := runArtifact[*ThroughputArtifact](t, "serve_throughput")

	for _, sz := range art.Sizes {
		if sz.Whole.ModeledMakespanSec <= 0 || sz.Fractional.ModeledMakespanSec <= 0 {
			t.Fatalf("n=%d: empty makespan (whole %v, fractional %v)",
				sz.N, sz.Whole.ModeledMakespanSec, sz.Fractional.ModeledMakespanSec)
		}
	}
	head := art.Sizes[len(art.Sizes)-1]
	if head.ModeledSpeedup < 2 {
		t.Errorf("n=%d fractional-lease modeled speedup %.2fx below the 2x acceptance bar",
			head.N, head.ModeledSpeedup)
	}
	if !art.Cache.DigestsVerified {
		t.Errorf("cache study served a hit whose digest differs from its miss")
	}
	if pairs := float64(art.Cache.Pairs); art.Cache.Hits < pairs || art.Cache.Misses < pairs {
		t.Errorf("cache counters hits=%v misses=%v, want >= %v each", art.Cache.Hits, art.Cache.Misses, pairs)
	}

	if raceEnabled {
		t.Log("race detector on: skipping the cache wall bar")
		return
	}
	// The cache wall bar: a hit must be ≥10× faster than the recompute.
	// Noise only ever slows the miss AND the hit, but a scheduler stall
	// landing on a hit (sub-millisecond) distorts the ratio far more than
	// one landing on a miss — so an under-bar reading earns up to three
	// fresh measurement windows, keeping the best.
	cs := art.Cache
	for attempt := 0; cs.SpeedupX < 10 && attempt < 3; attempt++ {
		t.Logf("cache speedup %.1fx under the 10x bar — remeasuring (attempt %d)", cs.SpeedupX, attempt+1)
		re, err := throughputCache(cs.N, cs.NB, cs.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		if re.SpeedupX > cs.SpeedupX {
			cs = re
		}
	}
	if cs.SpeedupX < 10 {
		t.Errorf("cache hit speedup %.1fx below the 10x acceptance bar (miss %.6fs, hit %.6fs)",
			cs.SpeedupX, cs.MissSeconds, cs.HitSeconds)
	}
}
