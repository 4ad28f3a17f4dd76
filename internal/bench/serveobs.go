package bench

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The instrumentation-overhead benchmark behind BENCH_serveobs.json: the
// same job mix served twice through the real HTTP stack, once at
// observe=full (per-job tracer, stamped journal teed into the flight
// recorder, job-labeled metric series) and once at observe=slo (the
// anonymous SLO telemetry only). The artifact records the end-to-end
// wall time, throughput, and job-latency quantiles of both arms plus the
// relative overhead — the acceptance gate is that request-scoped
// observability costs ≤ 3% on the serving path.

// ServeObsArm is one arm (one Observe level) of the comparison.
type ServeObsArm struct {
	Observe     string  `json:"observe"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	// P50/P95/P99 are job-duration quantiles from the arm's own
	// serve_job_duration_seconds histogram (all outcomes merged).
	P50 float64 `json:"p50_seconds"`
	P95 float64 `json:"p95_seconds"`
	P99 float64 `json:"p99_seconds"`
}

// ServeObsArtifact is the committed BENCH_serveobs.json.
type ServeObsArtifact struct {
	N           int         `json:"n"`
	NB          int         `json:"nb"`
	Jobs        int         `json:"jobs"`
	Capacity    int         `json:"capacity"`
	Repetitions int         `json:"repetitions"`
	Full        ServeObsArm `json:"full"`
	SLO         ServeObsArm `json:"slo"`
	// OverheadPct is the overhead of observe=full on per-job execution
	// latency (started→finished, so queue wait is excluded). Job i uses
	// the same seed in both arms and every repetition, so each of its
	// durations measures the identical computation; ambient noise (GC,
	// CPU frequency, noisy neighbors) only ever adds time, so the
	// minimum across repetitions is each arm's least-disturbed execution
	// of that exact job. The reported figure is the median over jobs of
	// min-full/min-slo, minus one, in percent. Arm order alternates
	// between repetitions so warm-up drift cannot favor either arm. The
	// per-arm walls above are the minima across repetitions
	// (descriptive, not the overhead basis).
	OverheadPct float64    `json:"overhead_pct"`
	Machine     Provenance `json:"machine"`
}

// serveObsArm serves the whole job mix once at the given Observe level
// and returns the wall time, the per-job execution latencies in
// submission order (started→finished from the status endpoint — queue
// wait excluded), and the arm's registry (for the quantiles).
func serveObsArm(observe string, n, nb, jobs, capacity int) (float64, []float64, *obs.Registry, error) {
	reg := obs.NewRegistry()
	s := serve.New(serve.Config{
		Capacity: capacity, QueueDepth: jobs,
		Registry: reg, Observe: observe,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	ids, err := runJobs(s, ts, jobs, func(i int) string {
		return fmt.Sprintf(`{"algorithm":"ft","n":%d,"nb":%d,"seed":%d}`, n, nb, i+1)
	})
	if err != nil {
		return 0, nil, nil, err
	}
	wall := time.Since(start).Seconds()

	durations := make([]float64, 0, jobs)
	for _, id := range ids {
		d, err := jobWindow(ts, id)
		if err != nil {
			return 0, nil, nil, err
		}
		durations = append(durations, d)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		return 0, nil, nil, err
	}
	return wall, durations, reg, nil
}

// ServeObs runs both arms back to back in each repetition (pairing them
// so ambient noise — GC, CPU frequency, scheduler state — hits both
// alike) and builds the artifact from the best repetition of each arm:
// the minimum wall is the least-disturbed execution, and its registry
// supplies the quantiles so latency and wall time describe the same run.
func ServeObs(n, nb, jobs, capacity, reps int) (*ServeObsArtifact, error) {
	art := &ServeObsArtifact{N: n, NB: nb, Jobs: jobs, Capacity: capacity, Repetitions: reps, Machine: machine()}
	// Arm 0 is observe=slo, arm 1 observe=full; odd repetitions run
	// them in the opposite order.
	observe := [2]string{serve.ObserveSLO, serve.ObserveFull}
	var best [2]float64
	var bestReg [2]*obs.Registry
	var durs [2][][]float64
	for r := 0; r < reps; r++ {
		for k := 0; k < 2; k++ {
			ai := k ^ r%2
			wall, d, reg, err := serveObsArm(observe[ai], n, nb, jobs, capacity)
			if err != nil {
				return nil, err
			}
			durs[ai] = append(durs[ai], d)
			if bestReg[ai] == nil || wall < best[ai] {
				best[ai], bestReg[ai] = wall, reg
			}
		}
	}
	for ai, out := range []*ServeObsArm{&art.SLO, &art.Full} {
		var snap obs.HistogramSnapshot
		for _, s := range obs.MergeBy(bestReg[ai], "serve_job_duration_seconds", "outcome") {
			snap.Merge(s)
		}
		q := snap.Quantiles(obs.ExportQuantiles...)
		*out = ServeObsArm{
			Observe:     observe[ai],
			WallSeconds: best[ai],
			JobsPerSec:  float64(jobs) / best[ai],
			P50:         q[0], P95: q[1], P99: q[2],
		}
	}
	// Job i runs the same seed everywhere, so min-across-reps is each
	// arm's least-disturbed execution of the identical computation; the
	// median over jobs of the min ratios is the overhead estimate.
	minDur := func(ai, i int) float64 {
		m := durs[ai][0][i]
		for _, d := range durs[ai][1:] {
			m = min(m, d[i])
		}
		return m
	}
	ratios := make([]float64, jobs)
	for i := range ratios {
		ratios[i] = minDur(1, i) / minDur(0, i)
	}
	sort.Float64s(ratios)
	art.OverheadPct = (ratios[jobs/2] - 1) * 100
	return art, nil
}

// ServeObsReport prints the comparison as a table.
func ServeObsReport(w io.Writer, art *ServeObsArtifact) {
	fmt.Fprintf(w, "Serving-path instrumentation overhead (N=%d, nb=%d, %d FT jobs, capacity %d, best of %d)\n",
		art.N, art.NB, art.Jobs, art.Capacity, art.Repetitions)
	fmt.Fprintf(w, "%-8s %12s %10s %10s %10s %10s\n", "observe", "wall (s)", "jobs/s", "p50 (s)", "p95 (s)", "p99 (s)")
	for _, a := range []ServeObsArm{art.SLO, art.Full} {
		fmt.Fprintf(w, "%-8s %12.4f %10.2f %10.4f %10.4f %10.4f\n",
			a.Observe, a.WallSeconds, a.JobsPerSec, a.P50, a.P95, a.P99)
	}
	fmt.Fprintf(w, "overhead: %+.2f%% (acceptance gate: <= 3%%)\n", art.OverheadPct)
}
