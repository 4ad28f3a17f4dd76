package bench

import "testing"

// TestFailStopStudy checks the claims DESIGN.md §13 makes of the
// fail-stop study on fresh results: parity upkeep costs something, the
// killed run costs more, reconstruction adds at most 3% over parity-on,
// and surviving the loss beats restarting the job at N ≤ 1024.
func TestFailStopStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("cost-only grid up to N=2048: skipped in -short mode")
	}
	art := runArtifact[*FailStopArtifact](t, "failstop")
	for _, c := range art.Cells {
		if !(c.CleanSeconds < c.ParitySeconds && c.ParitySeconds < c.RecoverySeconds) {
			t.Errorf("N=%d K=%d: want clean < parity < killed makespan, got %.4fs, %.4fs, %.4fs",
				c.N, c.Devices, c.CleanSeconds, c.ParitySeconds, c.RecoverySeconds)
		}
		if c.RecoverySeconds > 1.03*c.ParitySeconds {
			t.Errorf("N=%d K=%d: killed run %.2f%% over parity-on, want ≤3%%",
				c.N, c.Devices, 100*(c.RecoverySeconds/c.ParitySeconds-1))
		}
		if c.N <= 1024 && c.RestartRatio <= 1 {
			t.Errorf("N=%d K=%d: restart_ratio %.2f, want > 1", c.N, c.Devices, c.RestartRatio)
		}
	}
}
