package bench

import "testing"

// TestBenchLookaheadJSON runs the study behind BENCH_lookahead.json — the modeled
// effect of the depth-1 lookahead schedule across N ∈ {512,1024,2048}
// and pool sizes K ∈ {1,2,4} — and enforces the acceptance bars: at the
// largest cell (N=2048, K=4) the FT reduction must clear 1.2× the
// pre-lookahead anchor of 81.7 modeled GFLOPS (the shared checksum-vector
// caching that landed with the schedule also sped up the lookahead-off
// cells, so the on/off ratio within this artifact understates the gain
// over the previous release), lookahead-on must still beat lookahead-off,
// and the hidden share of panel-factorization time must be material
// (>80%: every panel after the first runs under the previous trailing
// update). Cost-only runs are deterministic; TestCommittedArtifacts
// checks the committed file against a fresh run.
func TestBenchLookaheadJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("cost-only grid up to N=2048: skipped in -short mode")
	}
	art := runArtifact[*LookaheadArtifact](t, "lookahead")
	if got := len(art.Cells); got != 18 {
		t.Fatalf("expected 18 cells (2 schedules × 3 sizes × 3 pools), got %d", got)
	}
	const preLookaheadGFLOPS = 81.7 // FT N=2048 K=4 nb=32 before this schedule landed
	for _, c := range art.Cells {
		if c.N == 2048 && c.Devices == 4 && c.Lookahead {
			if c.GFLOPS < 1.2*preLookaheadGFLOPS {
				t.Errorf("FT N=2048 K=4 with lookahead: %.1f GFLOPS below the 1.2x-over-%.1f bar",
					c.GFLOPS, preLookaheadGFLOPS)
			}
		}
	}
	if sp := art.Speedup(2048, 4); sp <= 1.0 {
		t.Errorf("lookahead on/off speedup %.2fx at N=2048 K=4 is not a win", sp)
	}
	for _, c := range art.Cells {
		if !c.Lookahead && c.PanelHiddenFrac != 0 {
			t.Errorf("N=%d K=%d: lookahead off but panel_hidden_frac=%.3f", c.N, c.Devices, c.PanelHiddenFrac)
		}
		if c.Lookahead && c.PanelHiddenFrac < 0.8 {
			t.Errorf("N=%d K=%d: panel_hidden_frac=%.3f below 0.8 — the schedule is not hiding panels",
				c.N, c.Devices, c.PanelHiddenFrac)
		}
	}
}
