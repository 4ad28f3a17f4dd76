package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// extras measures the traced run's fixed-input metrics: the BLAS kernel
// probes and the memory roof, the sibling schedules on reduce-direct's
// first input, verification and fault recovery on serve-ft's first
// input, and the exact per-op counts of the workload's op mix.
func (rep *report) extras(cfg *config, tr *tracer) error {
	rep.probes(cfg, tr)
	if err := rep.siblings(cfg, tr); err != nil {
		return err
	}
	if err := rep.verification(cfg, tr); err != nil {
		return err
	}
	return rep.counts(cfg)
}

// timed runs f reps times and returns the median wall time in seconds,
// recording each run as a span.
func timed(tr *tracer, name string, reps int, f func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		tr.record(name, "extras", -1, t0, t1)
		ts = append(ts, t1.Sub(t0).Seconds())
	}
	return median(ts), nil
}

// Repetitions of the kernel probes; each result is the median.
const (
	gemvReps  = 50
	gemmReps  = 30
	triadReps = 5
)

// probes times blas.Dgemv N×N and the rank-nb blas.Dgemm N×N×nb at
// N = cfg.ProbeN, and a STREAM-style triad as the memory roof.
func (rep *report) probes(cfg *config, tr *tracer) {
	n, nb := cfg.ProbeN, cfg.NB
	a := matrix.Random(n, n, 1)
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	gemv, _ := timed(tr, "blas.Dgemv", gemvReps, func() error {
		blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, x, 1, 0, y, 1)
		return nil
	})
	gemvBytes := 8 * float64(n*n+2*n)

	p, q := matrix.Random(n, nb, 2), matrix.Random(nb, n, 3)
	c := matrix.Random(n, n, 4)
	gemm, _ := timed(tr, "blas.Dgemm.rank_nb", gemmReps, func() error {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, nb, -1, p.Data, p.Stride, q.Data, q.Stride, 1, c.Data, c.Stride)
		return nil
	})

	llc := rep.Provenance.LLCBytes
	total := cfg.TriadBytes
	if total <= 0 {
		total = 4 * llc
	}
	elems := int(total / 24)
	ta, tb, tc := make([]float64, elems), make([]float64, elems), make([]float64, elems)
	for i := range tb {
		tb[i], tc[i] = 1, 2
	}
	workers := runtime.GOMAXPROCS(0)
	triad, _ := timed(tr, "triad", triadReps, func() error {
		parallelTriad(ta, tb, tc, 3, workers)
		return nil
	})
	ta, tb, tc = nil, nil, nil
	debug.FreeOSMemory()

	dgemvGBps := gemvBytes / gemv / 1e9
	triadGBps := 24 * float64(elems) / triad / 1e9
	rep.set("blas.dgemv_gbps", dgemvGBps)
	rep.set("blas.dgemm_rank_nb_gflops", 2*float64(n)*float64(n)*float64(nb)/gemm/1e9)
	rep.set("blas.triad_gbps", triadGBps)
	rep.set("blas.dgemv_roof_frac", dgemvGBps/triadGBps)
	rep.Notes["blas.probes"] = fmt.Sprintf("Dgemv %d×%d and Dgemm %d×%d×%d, medians of %d and %d calls; "+
		"bytes are computed from array sizes (Dgemv 8·(N²+2N) B), not measured traffic. "+
		"The probe matrix (%.1f MiB) and the workload matrices (N=%d: %.1f MiB) fit in the %.1f MiB LLC, "+
		"so blas.dgemv_roof_frac can exceed 1.",
		n, n, n, n, nb, gemvReps, gemmReps, 8*float64(n*n)/(1<<20),
		cfg.N, 8*float64(cfg.N*cfg.N)/(1<<20), float64(llc)/(1<<20))
	rep.Notes["blas.triad_gbps"] = fmt.Sprintf("a = b + s·c over 3 arrays of %.1f MiB each (%.1f MiB in all, %.1f× the %.1f MiB LLC) "+
		"on %d goroutines, median of %d passes; bytes computed as 24 B per element",
		float64(8*elems)/(1<<20), float64(24*elems)/(1<<20), float64(24*elems)/float64(llc),
		float64(llc)/(1<<20), workers, triadReps)
}

func parallelTriad(a, b, c []float64, s float64, workers int) {
	chunk := (len(a) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(a); lo += chunk {
		hi := min(lo+chunk, len(a))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				a[i] = b[i] + s*c[i]
			}
		}()
	}
	wg.Wait()
}

// siblings times the sibling schedules on reduce-direct's first input,
// in round-robin order so drift spreads evenly over them, and reports the
// modeled-over-measured ratio next to each.
func (rep *report) siblings(cfg *config, tr *tracer) error {
	a, _ := directInput(cfg, 0)
	nb := cfg.NB
	scheds := []struct {
		name string
		opt  core.Options
	}{
		{"ft_k0", core.Options{NB: nb}},
		{"baseline_k0", core.Options{Algorithm: core.Baseline, NB: nb}},
		{"ft_k1", core.Options{NB: nb, DeviceCount: 1}},
		{"ft_k2", core.Options{NB: nb, DeviceCount: 2}},
		{"ft_k2_fused", directOptions(nb)},
	}
	walls := make([][]float64, len(scheds))
	sims := make([]float64, len(scheds))
	digests := make([]string, len(scheds))
	for r := 0; r < cfg.Reps; r++ {
		for i, s := range scheds {
			t0 := time.Now()
			res, err := core.Reduce(a, s.opt)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("sibling schedule %s: %w", s.name, err)
			}
			tr.record("core.Reduce."+s.name, "extras", -1, t0, t1)
			walls[i] = append(walls[i], t1.Sub(t0).Seconds())
			sims[i], digests[i] = res.SimSeconds, res.Digest()
		}
	}
	wall := map[string]float64{}
	var modeled []string
	for i, s := range scheds {
		wall[s.name] = median(walls[i])
		rep.set("core.reduce_s."+s.name, wall[s.name])
		rep.set("sim.model_over_wall."+s.name, sims[i]/wall[s.name])
		modeled = append(modeled, fmt.Sprintf("%s modeled %.4f s, measured %.4f s, model/wall %.3f",
			s.name, sims[i], wall[s.name], sims[i]/wall[s.name]))
	}
	// The pool schedules are bit-identical at every pool size and
	// substrate.
	if digests[2] != digests[3] || digests[3] != digests[4] {
		rep.Problems = append(rep.Problems, "sibling pool schedules ft_k1, ft_k2, ft_k2_fused disagree on the digest")
	}
	rep.set("ft.overhead_frac", wall["ft_k0"]/wall["baseline_k0"]-1)
	rep.set("devpool.k1_over_k0", wall["ft_k1"]/wall["ft_k0"])
	rep.set("devpool.k2_over_k0", wall["ft_k2"]/wall["ft_k0"])
	rep.set("ft.fused_over_swept", wall["ft_k2_fused"]/wall["ft_k2"])
	rep.Notes["siblings"] = fmt.Sprintf("medians of %d round-robin runs on reduce-direct's first input (N=%d, nb=%d, lookahead on): %v",
		cfg.Reps, cfg.N, nb, modeled)
	return nil
}

// verification times the calls the server makes after each FT reduction
// (Result.Q, Result.Residual, Result.Orthogonality) and the recovery cost
// of serve-ft's faults, on serve-ft's first input.
func (rep *report) verification(cfg *config, tr *tracer) error {
	a := matrix.Random(cfg.N, cfg.N, deriveSeed(cfg.Seed, streamFT, 0))
	faultSeed := deriveSeed(cfg.Seed, streamFault, 0)
	var res *core.Result
	clean, err := timed(tr, "core.Reduce.clean", cfg.Reps, func() (err error) {
		res, err = core.Reduce(a, core.Options{NB: cfg.NB})
		return err
	})
	if err != nil {
		return err
	}
	var recovery float64
	for area := 1; area <= 3; area++ {
		t, err := timed(tr, fmt.Sprintf("core.Reduce.fault_area%d", area), cfg.Reps, func() error {
			_, err := core.Reduce(a, core.Options{NB: cfg.NB, Hook: fault.NewSchedule(faultPlan(area, faultSeed))})
			return err
		})
		if err != nil {
			return err
		}
		recovery += (t - clean) / 3
	}
	qForm, _ := timed(tr, "Result.Q", cfg.Reps, func() error { res.Q(); return nil })
	resid, _ := timed(tr, "Result.Residual", cfg.Reps, func() error { res.Residual(a); return nil })
	orth, _ := timed(tr, "Result.Orthogonality", cfg.Reps, func() error { res.Orthogonality(); return nil })
	rep.set("ft.recovery_s", recovery)
	rep.set("lapack.q_form_s", qForm)
	rep.set("lapack.residual_s", resid)
	rep.set("lapack.orthogonality_s", orth)
	rep.set("lapack.verify_frac", (resid+orth)/(clean+resid+orth))
	rep.Notes["lapack"] = fmt.Sprintf("medians of %d calls on serve-ft's first input (N=%d); Residual and Orthogonality "+
		"each form Q again. lapack.verify_frac = (residual + orthogonality) / (reduce + residual + orthogonality): "+
		"the share of a served FT job's worker time spent verifying, the calls serve makes per job", cfg.Reps, cfg.N)
	rep.Notes["ft.recovery_s"] = fmt.Sprintf("mean over fault areas 1-3 at iteration %d of (faulted - clean) reduce wall, "+
		"medians of %d runs each, on serve-ft's first input (clean reduce %.4f s)", faultIter, cfg.Reps, clean)
	return nil
}

// mixEntry is one reduction of a workload's op mix and how many times an
// average op runs it.
type mixEntry struct {
	a      *matrix.Matrix
	opt    core.Options
	weight float64
}

// opMix is the reductions an average op of the workload computes, over
// whole periods of its deterministic mix.
func opMix(cfg *config) []mixEntry {
	switch cfg.Workload {
	case wlDirect:
		a, _ := directInput(cfg, 0)
		return []mixEntry{{a, directOptions(cfg.NB), 1}}
	case wlFT:
		a := matrix.Random(cfg.N, cfg.N, deriveSeed(cfg.Seed, streamFT, 0))
		faultSeed := deriveSeed(cfg.Seed, streamFault, 0)
		mix := []mixEntry{{a, core.Options{NB: cfg.NB}, 0.75}}
		for area := 1; area <= 3; area++ {
			opt := core.Options{NB: cfg.NB, Hook: fault.NewSchedule(faultPlan(area, faultSeed))}
			mix = append(mix, mixEntry{a, opt, 0.25 / 3})
		}
		return mix
	default:
		// Only the cold half of a batch computes; its sizes cycle evenly.
		var mix []mixEntry
		for _, n := range cfg.BatchNs {
			mix = append(mix, mixEntry{matrix.Random(n, n, deriveSeed(cfg.Seed, streamCold, 0)),
				core.Options{NB: cfg.NB}, float64(batchItems/2) / float64(len(cfg.BatchNs))})
		}
		return mix
	}
}

// counts reports the exact per-op counts of the workload's op mix, read
// from a registry passed as core.Options.Obs to direct reductions.
func (rep *report) counts(cfg *config) error {
	series := []struct{ metric, name string }{
		{"ft.detections", "ft_detections_total"},
		{"ft.recoveries", "ft_recoveries_total"},
		{"ft.q_corrections", "ft_q_corrections_total"},
		{"ft.substrate_checks", "ft_substrate_checks_total"},
		{"gpu.kernels", "device_kernels"},
		{"gpu.transfers", "device_transfers"},
		{"gpu.transfer_bytes", "device_transfer_bytes"},
	}
	total := map[string]float64{}
	for _, e := range opMix(cfg) {
		reg := obs.NewRegistry()
		opt := e.opt
		opt.Obs = reg
		if _, err := core.Reduce(e.a, opt); err != nil {
			return fmt.Errorf("counting reduction: %w", err)
		}
		sums := map[string]float64{}
		for _, p := range reg.Snapshot() {
			sums[p.Name] += p.Value
		}
		for _, s := range series {
			total[s.metric] += e.weight * sums[s.name]
		}
	}
	names := make([]string, 0, len(series))
	for _, s := range series {
		rep.set(s.metric, total[s.metric])
		names = append(names, s.metric)
	}
	sort.Strings(names)
	rep.Notes["counts"] = fmt.Sprintf("%v are exact per-op averages over whole periods of the workload's op mix, "+
		"read from a registry passed as core.Options.Obs to direct core.Reduce calls of that mix", names)
	return nil
}
