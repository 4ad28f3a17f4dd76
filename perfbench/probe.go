package main

import (
	"sort"
	"time"
)

// The host the benchmark runs on is a few cores of a shared machine, and
// its speed drifts with the other tenants' load: the same single-threaded
// N=512 reduction, timed in 3 s chunks, ranged from 0.15 to 0.27 s within
// two minutes on a 2-vCPU Xeon VM, with little steal time to account for
// it. A 30 s window cannot average out drift that slow, so the benchmark
// measures the host's speed itself, with a fixed pure-Go kernel timed by
// each client between its ops, and scales every end-to-end time to the
// speed of a reference host:
//
//	scaled = wall × refProbeSeconds / probe
//
// where probe is the mean of the two probe times nearest the op (see
// drive), or of the medians of three taken just before and just after a
// set-up. The speed swings within seconds, so only probes next to an op
// follow it; a median over more probes steadied op_p50_s no more and
// widened the spread of op_p90_s across runs. The probe calls no code of
// the program, so a change to the program moves the scaled times as it
// moves the wall times. The unscaled figures are kept in the result file.

// refProbeSeconds is the probe's median time on the reference host, a
// 2-vCPU Xeon VM (2 MiB L2, 105 MiB LLC) with go1.24, in a quiet phase.
// It only sets the scale: scaled times equal wall times on that host when
// it runs at that speed.
const refProbeSeconds = 0.004

const (
	// probeDim is the order of the probe's dense matrix product, which
	// exercises the FP units from L1/L2 like the reduction's kernels do.
	probeDim = 64
	// probeStream is the length of the probe's two streamed arrays
	// (2 MiB each): like the N=512 workload matrices, they spill out of
	// L2 into the shared LLC.
	probeStream = 1 << 18
	// probePasses is the number of (product, stream) passes in one
	// probe: about 5 ms, 1-5% of an op.
	probePasses = 4
)

// hostProbe times the fixed kernel and keeps every probe it took.
type hostProbe struct {
	x, y, z  []float64
	src, dst []float64
	sink     float64
	samples  []float64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{
		x: make([]float64, probeDim*probeDim), y: make([]float64, probeDim*probeDim),
		z:   make([]float64, probeDim*probeDim),
		src: make([]float64, probeStream), dst: make([]float64, probeStream),
	}
	for i := range p.x {
		p.x[i], p.y[i] = float64(i%7)+1, float64(i%5)-2
	}
	for i := range p.src {
		p.src[i] = float64(i % 3)
	}
	return p
}

func (p *hostProbe) kernel() {
	const m = probeDim
	for pass := 0; pass < probePasses; pass++ {
		for i := 0; i < m; i++ {
			for k := 0; k < m; k++ {
				aik := p.x[i*m+k]
				for j := 0; j < m; j++ {
					p.z[i*m+j] += aik * p.y[k*m+j]
				}
			}
		}
		for i := range p.dst {
			p.dst[i] = p.src[i] + 0.5*p.dst[i]
		}
	}
	p.sink += p.z[m*m-1] + p.dst[probeStream-1]
}

// measure times the kernel once.
func (p *hostProbe) measure() float64 {
	t0 := time.Now()
	p.kernel()
	t := time.Since(t0).Seconds()
	p.samples = append(p.samples, t)
	return t
}

// probeTime is one probe: its middle, in seconds since drive started, and
// its length.
type probeTime struct{ at, secs float64 }

// probeNear is how many probes an op's scale is the median of.
const probeNear = 2

// nearestProbe returns the median length of the probeNear probes whose
// middles are nearest to at; sorted is in order of at.
func nearestProbe(sorted []probeTime, at float64) float64 {
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i].at >= at })
	lo := hi - 1
	var near []float64
	for len(near) < probeNear && (lo >= 0 || hi < len(sorted)) {
		if hi >= len(sorted) || (lo >= 0 && at-sorted[lo].at < sorted[hi].at-at) {
			near, lo = append(near, sorted[lo].secs), lo-1
		} else {
			near, hi = append(near, sorted[hi].secs), hi+1
		}
	}
	return median(near)
}

// scale is the factor from wall time to reference-host time for an
// interval with the probe times before and after it.
func scale(before, after float64) float64 {
	return refProbeSeconds / ((before + after) / 2)
}
