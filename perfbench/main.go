// Command perfbench is the repository benchmark. It measures the wall time
// of the Hessenberg reduction end to end and layer by layer on three
// workloads, each driven only through public entry points: core.Reduce
// and core.Result; serve.New, its HTTP handler and Job(id).Done(); and
// blas.Dgemm, blas.Dgemv and blas.SetObs. It adds no instrumentation to
// the program: per-layer numbers come from spans the benchmark records
// around those calls and from counters and job traces the program already
// exports.
//
// Workloads (closed loop: a client sends its next op only after the
// previous one completes; at most two clients, sized for a 2-core host,
// and BLAS pinned to one worker per op so no more threads compute at once
// than there are clients):
//
//	reduce-direct  one caller loops core.Reduce (FT, 2-device pool, fused
//	               substrate, lookahead on, fault-free). The reduction
//	               layers (blas with the FT kernels, devpool, ft, gpu) do
//	               all the work; verification and serving do none.
//	serve-ft       two loopback HTTP clients against serve.New(Capacity 2)
//	               with the cache off, as fthessd runs by default. FT jobs
//	               on the default single-device schedule; one job in four
//	               carries a transient fault. Exact verification dominates.
//	serve-batch    two clients posting 8-item batched jobs to a lane farm
//	               with a result cache; half the items hit a warmed hot
//	               set, half miss. Serving overhead dominates.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-ft --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The full result file
// (provenance, sample counts, set-up times, notes, spans) is written under
// the -results directory. The end-to-end times are scaled to a reference
// host's speed by a host probe timed next to every op (probe.go); the
// result file keeps them unscaled too. Every op's result digest is
// checked against a direct, untimed core.Reduce of the same input; a
// mismatch fails the run with exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	results := fs.String("results", "", "directory for the full result file (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}
	cfg, err := newConfig(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	rep, err := runBench(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *results != "" {
		path, err := writeReport(*results, rep)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: result file %s\n", path)
	}
	line, err := json.Marshal(rep.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode summary: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: correctness check failed: %v\n", rep.Problems)
		return 1
	}
	return 0
}

// writeReport stores the full report as indented JSON and returns its path.
func writeReport(dir string, rep *report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create results directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json",
		rep.Config.Workload, rep.Config.Seed, boolInt(rep.Config.Trace)))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write report: %w", err)
	}
	return path, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
