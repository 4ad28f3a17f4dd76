package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// workload is one traffic mix the benchmark drives.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// op runs operation idx; tr is nil outside traced blocks.
	op(idx int, tr *tracer) opRecord
	// counters returns the program's exported counters, summed over
	// labels (nil when the workload runs no server).
	counters() (map[string]float64, error)
	// close shuts the workload down and waits for its goroutines.
	close() error
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.Workload {
	case wlDirect:
		return newDirect(cfg)
	case wlFT:
		return newServeFT(cfg)
	default:
		return newServeBatch(cfg)
	}
}

// opRecord is one timed op.
type opRecord struct {
	Idx     int
	Latency float64 // seconds, as the client saw it
	Scale   float64 // host-speed scale of the op (see drive and probe.go)
	Items   int     // factorizations delivered
	Err     string  // transport or job failure
	Refused bool    // 429 at submit
	Checks  []check // one per factorization
	Traced  bool
	Layer   layerSample // traced ops only

	ok  bool    // set by verify: no error, every check passed
	mid float64 // middle of the op, seconds since drive started
}

// layerSample is what a traced op attributes to the layers below it.
type layerSample struct {
	// Served jobs, from the job status and the job's Chrome trace.
	QueueWait, LeaseWait, Run, Reduce, HTTP float64
	ResultBytes                             int
	// Reductions computed during the op, their summed wall time and
	// their summed modeled (simulated K40c) time.
	Reductions int
	ReduceWall float64
	SimSeconds float64
}

// check pairs one delivered factorization with the input it came from.
type check struct {
	Key refKey
	Got string
	// Reported is set when a faulted run reported its detection or Q
	// correction.
	Reported bool
}

// refKey identifies a checked input: a generated matrix, its block size,
// its schedule family and the fault injected into it.
type refKey struct {
	N, NB int
	Seed  uint64
	// Pool selects the multi-device pool schedule family, whose digests
	// are identical at every pool size but differ from the single-device
	// schedule's.
	Pool bool
	// Area is the fault area injected at faultIter (0: fault-free).
	Area      int
	FaultSeed uint64
}

func faultPlan(area int, seed uint64) fault.Plan {
	return fault.Plan{Area: fault.Area(area), TargetIter: faultIter, Seed: seed}
}

// reference reduces the key's input directly. It runs the same schedule
// family as the timed op but not the same schedule (pool size 1 where the
// op uses a pool, lookahead off, swept substrate), so the comparison also
// checks the bit-identity contracts; no digest is pinned, so a change of
// schedule family stays measurable.
func reference(k refKey) (string, error) {
	opt := core.Options{NB: k.NB, DisableLookahead: true}
	if k.Pool {
		opt.DeviceCount = 1
	}
	if k.Area != 0 {
		opt.Hook = fault.NewSchedule(faultPlan(k.Area, k.FaultSeed))
	}
	res, err := core.Reduce(matrix.Random(k.N, k.N, k.Seed), opt)
	if err != nil {
		return "", fmt.Errorf("reference reduction n=%d seed=%d: %w", k.N, k.Seed, err)
	}
	return res.Digest(), nil
}

// verify checks every delivered factorization against its reference and
// marks the ops that pass. It returns the problems found.
func verify(recs []opRecord, mutate func(string) string) ([]string, error) {
	refs := map[refKey]string{}
	var problems []string
	for i := range recs {
		r := &recs[i]
		if r.Err != "" || r.Refused {
			continue
		}
		r.ok = true
		for _, c := range r.Checks {
			want, done := refs[c.Key]
			if !done {
				var err error
				if want, err = reference(c.Key); err != nil {
					return nil, err
				}
				if mutate != nil {
					want = mutate(want)
				}
				refs[c.Key] = want
			}
			if c.Got != want {
				r.ok = false
				problems = append(problems, fmt.Sprintf("op %d: digest %.12s… for n=%d seed=%d area=%d, reference %.12s…",
					r.Idx, c.Got, c.Key.N, c.Key.Seed, c.Key.Area, want))
			}
			if c.Key.Area != 0 && !c.Reported {
				r.ok = false
				problems = append(problems, fmt.Sprintf("op %d: fault in area %d neither detected nor corrected", r.Idx, c.Key.Area))
			}
		}
	}
	return problems, nil
}

// tracer keeps the spans of a traced run in memory until the report is
// written.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"` // op index; -1 outside ops
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
}

func (t *tracer) record(name, parent string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// drive runs the workload's clients in a closed loop until d has passed
// and returns the ops with the wall time until the last one finished.
// Each client times its host probe (probes[client]) before its first op
// and after every op, outside the op's latency. An op's scale is that of
// the probeNear probes, from any client, nearest in time to the op's
// middle.
func drive(w workload, d time.Duration, next *atomic.Int64, tr *tracer, probes []*hostProbe) ([]opRecord, float64) {
	per := make([][]opRecord, w.clients())
	taken := make([][]probeTime, w.clients())
	t0 := time.Now()
	probe := func(c int) {
		at := time.Since(t0).Seconds()
		secs := probes[c].measure()
		taken[c] = append(taken[c], probeTime{at + secs/2, secs})
	}
	// The first probes come before the window opens, so that every
	// client starts an op however slow the probe runs.
	for c := range per {
		probe(c)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				at := time.Since(t0).Seconds()
				r := w.op(int(next.Add(1)-1), tr)
				r.Traced, r.mid = tr != nil, at+r.Latency/2
				per[c] = append(per[c], r)
				probe(c)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var recs []opRecord
	var all []probeTime
	for c := range per {
		recs, all = append(recs, per[c]...), append(all, taken[c]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	for i := range recs {
		recs[i].Scale = refProbeSeconds / nearestProbe(all, recs[i].mid)
	}
	return recs, wall
}

// tracedBlocks is how many blocks a traced run's window is cut into.
// Blocks alternate untraced and traced, so trace.overhead_frac compares
// ops of the same run under the same conditions.
const tracedBlocks = 4

// measure runs the timed window: one closed-loop block, or with tracing
// tracedBlocks blocks alternating untraced and traced. It returns the
// ops, their wall time, and how much the program's exported counters
// grew over the traced blocks.
func measure(cfg *config, w workload, tr *tracer, blasReg *obs.Registry, probes []*hostProbe) ([]opRecord, float64, map[string]float64, error) {
	var next atomic.Int64
	if tr == nil {
		recs, wall := drive(w, cfg.window(), &next, nil, probes)
		return recs, wall, nil, nil
	}
	var recs []opRecord
	var wall float64
	grown := map[string]float64{}
	for b := 0; b < tracedBlocks; b++ {
		if b%2 == 0 {
			r, bw := drive(w, cfg.window()/tracedBlocks, &next, nil, probes)
			recs, wall = append(recs, r...), wall+bw
			continue
		}
		c0, err := w.counters()
		if err != nil {
			return nil, 0, nil, err
		}
		prev := blas.SetObs(blasReg)
		r, bw := drive(w, cfg.window()/tracedBlocks, &next, tr, probes)
		blas.SetObs(prev)
		recs, wall = append(recs, r...), wall+bw
		c1, err := w.counters()
		if err != nil {
			return nil, 0, nil, err
		}
		for k, v := range c1 {
			grown[k] += v - c0[k]
		}
	}
	return recs, wall, grown, nil
}

func runBench(cfg *config, log io.Writer) (*report, error) {
	rep := &report{
		Provenance: collectProvenance(cfg),
		Config:     cfg,
		Metrics:    map[string]metricValue{},
		Notes:      map[string]string{},
		WaitMethod: waitMethod(cfg.Workload),
	}
	defer blas.SetMaxProcs(blas.SetMaxProcs(blasProcs))
	rep.Notes["blas_procs"] = fmt.Sprintf("blas.SetMaxProcs(%d) for the whole run: at most one BLAS worker per op", blasProcs)
	probes := []*hostProbe{newHostProbe()}
	// A set-up is timed once, so its probes are medians of three.
	setupProbe := func() float64 {
		return median([]float64{probes[0].measure(), probes[0].measure(), probes[0].measure()})
	}
	before := setupProbe()
	var w workload
	for i := 0; i < cfg.Setups; i++ {
		t0 := time.Now()
		nw, err := newWorkload(cfg)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", cfg.Workload, err)
		}
		dt := time.Since(t0).Seconds()
		after := setupProbe()
		rep.SetupSeconds = append(rep.SetupSeconds, dt)
		rep.SetupScaled = append(rep.SetupScaled, dt*scale(before, after))
		before = after
		if i == cfg.Setups-1 {
			w = nw
		} else if err := nw.close(); err != nil {
			return nil, fmt.Errorf("tear down %s: %w", cfg.Workload, err)
		}
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d set up in %.3fs scaled (median of %v)\n",
		cfg.Workload, cfg.Seed, median(rep.SetupScaled), rep.SetupScaled)

	var tr *tracer
	if cfg.Trace {
		tr = &tracer{t0: time.Now()}
	}
	blasReg := obs.NewRegistry()
	mem := startMemSampler()
	for len(probes) < w.clients() {
		probes = append(probes, newHostProbe())
	}
	recs, wall, served, err := measure(cfg, w, tr, blasReg, probes)
	for _, p := range probes {
		rep.HostProbe = append(rep.HostProbe, p.samples...)
	}
	peak, memErr := mem.finish()
	if err := errors.Join(err, memErr, w.close()); err != nil {
		return nil, err
	}

	problems, err := verify(recs, cfg.refMutate)
	if err != nil {
		return nil, err
	}
	rep.Problems = problems
	rep.endToEnd(recs, wall, peak)
	if cfg.Trace {
		rep.layers(recs, blasReg, served)
		if err := rep.extras(cfg, tr); err != nil {
			return nil, err
		}
		rep.Spans = tr.spans
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0 && rep.Attempted > 0
	return rep, nil
}

func waitMethod(wl string) string {
	if wl == wlDirect {
		return "synchronous core.Reduce call"
	}
	return "POST /v1/jobs, then block on the in-process (*serve.Server).Job(id).Done() channel " +
		"(no status polling), then GET /v1/jobs/{id}/result and read the whole body; " +
		"DELETE /v1/jobs/{id} follows outside the op time"
}

// endToEnd fills the end-to-end metrics from every op of the run. Times
// are scaled to the reference host (probe.go); the unscaled ones go to
// the result file.
func (rep *report) endToEnd(recs []opRecord, wall, peakMiB float64) {
	var lat, raw []float64
	items := 0
	var opWall, opScaled float64
	for _, r := range recs {
		rep.Attempted++
		opWall += r.Latency
		opScaled += r.Latency * r.Scale
		if !r.ok {
			rep.Failed++
			continue
		}
		lat = append(lat, r.Latency*r.Scale)
		raw = append(raw, r.Latency)
		items += r.Items
	}
	// The window's wall time is scaled by the ops' time-weighted mean
	// scale.
	scaledWall := wall * ratio(opScaled, opWall)
	sort.Float64s(lat)
	sort.Float64s(raw)
	rep.FailFrac = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Samples = len(lat)
	rep.set("setup_s", median(rep.SetupScaled))
	rep.set("op_p50_s", quantile(lat, 0.5))
	rep.set("op_p90_s", quantile(lat, 0.9))
	rep.set("items_per_s", ratio(float64(items), scaledWall))
	rep.Unscaled = map[string]float64{
		"setup_s":     median(rep.SetupSeconds),
		"op_p50_s":    quantile(raw, 0.5),
		"op_p90_s":    quantile(raw, 0.9),
		"items_per_s": ratio(float64(items), wall),
	}
	rep.Notes["host_speed"] = fmt.Sprintf("setup_s, op_p50_s, op_p90_s and items_per_s are scaled to the reference host: "+
		"wall × %g s / host probe, the probe timed by the same client before and after each set-up and each op "+
		"(host_probe_s: median %.5f s, range %.5f-%.5f s); unscaled figures are under unscaled",
		refProbeSeconds, median(rep.HostProbe), slices.Min(rep.HostProbe), slices.Max(rep.HostProbe))
	rep.set("ok_frac", 1-rep.FailFrac)
	rep.set("peak_mem_mb", peakMiB)
	beyond := len(lat) - int(0.9*float64(len(lat))+0.5)
	rep.Notes["op_latency"] = fmt.Sprintf("op_p50_s and op_p90_s over %d ops (%d beyond the p90); "+
		"failed and refused ops count in ok_frac = 1 - fail_frac, not in the latencies", len(lat), beyond)
	if beyond < 10 {
		rep.Notes["op_latency_warning"] = "fewer than 10 ops beyond the p90: lengthen --seconds"
	}
	rep.Notes["items_per_s"] = fmt.Sprintf("%d verified factorizations over %.3f s of wall time", items, wall)
	rep.Notes["peak_mem_mb"] = "peak resident set size of the process, sampled every 5 ms during the timed window"
	rep.Notes["setup_s"] = fmt.Sprintf("median of %d set-ups %v; reference digests are computed after the window and count in neither set-up nor op time", len(rep.SetupSeconds), rep.SetupSeconds)
}

// layers fills the per-layer metrics measured on the workload's own ops.
func (rep *report) layers(recs []opRecord, blasReg *obs.Registry, served map[string]float64) {
	var sum layerSample
	var traced, untraced []float64
	nTraced, refused := 0, 0
	for _, r := range recs {
		if r.Refused {
			refused++
		}
		if !r.ok {
			continue
		}
		if !r.Traced {
			untraced = append(untraced, r.Latency*r.Scale)
			continue
		}
		nTraced++
		traced = append(traced, r.Latency*r.Scale)
		l := r.Layer
		sum.QueueWait += l.QueueWait
		sum.LeaseWait += l.LeaseWait
		sum.Run += l.Run
		sum.Reduce += l.Reduce
		sum.HTTP += l.HTTP
		sum.ResultBytes += l.ResultBytes
		sum.Reductions += l.Reductions
		sum.ReduceWall += l.ReduceWall
		sum.SimSeconds += l.SimSeconds
	}
	n := float64(nTraced)
	sort.Float64s(traced)
	sort.Float64s(untraced)
	rep.set("trace.overhead_frac", ratio(quantile(traced, 0.5), quantile(untraced, 0.5))-1)
	rep.Notes["trace.overhead_frac"] = fmt.Sprintf("op_p50_s of %d traced ops over that of %d untraced ops of the same run, minus 1",
		len(traced), len(untraced))

	rep.set("core.reduce_s", ratio(sum.ReduceWall, float64(sum.Reductions)))
	rep.set("sim.model_over_wall", ratio(sum.SimSeconds, sum.ReduceWall))
	rep.set("serve.queue_wait_s", ratio(sum.QueueWait, n))
	rep.set("serve.lease_wait_s", ratio(sum.LeaseWait, n))
	rep.set("serve.reduce_s", ratio(sum.Reduce, n))
	rep.set("serve.post_reduce_s", ratio(sum.Run-sum.LeaseWait-sum.Reduce, n))
	rep.set("serve.http_s", ratio(sum.HTTP, n))
	rep.set("serve.result_bytes", ratio(float64(sum.ResultBytes), n))
	rep.set("serve.rejected", float64(refused))
	rep.Notes["layers"] = fmt.Sprintf("per-layer times are means per op over %d traced ops "+
		"(%d reductions); serve.* come from the job status and GET /v1/jobs/{id}/trace", nTraced, sum.Reductions)

	var blasSecs float64
	for _, op := range []string{"gemv", "gemv_ft", "ger", "ger_ft", "gemm", "gemm_ft"} {
		s := blasReg.CounterValue("blas_op_seconds_total", obs.L("op", op))
		blasSecs += s
		rep.set("blas."+op+"_s", ratio(s, n))
	}
	rep.set("blas.gflops", ratio(blasReg.CounterValue("blas_flops_total"), blasSecs)/1e9)

	hits, misses := served["serve_cache_hits_total"], served["serve_cache_misses_total"]
	rep.set("batch.cache_hit_frac", ratio(hits, hits+misses))
	rep.Notes["batch.cache_hit_frac"] = fmt.Sprintf("%.0f hits over %.0f cache lookups (hits + misses) in the traced blocks", hits, hits+misses)
	rep.set("batch.coalesced", ratio(served["serve_cache_coalesced_total"], n))
	rep.set("batch.items_computed", ratio(served["batch_items_total"]-hits, n))
	rep.set("batch.groups", ratio(served["batch_groups_total"], n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
