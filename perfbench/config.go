package main

import (
	"fmt"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlDirect = "reduce-direct"
	wlFT     = "serve-ft"
	wlBatch  = "serve-batch"
)

var workloadNames = []string{wlDirect, wlFT, wlBatch}

// Fixed shape of the workloads. The reduction order is 512 rather than a
// larger size so that reduce-direct and serve-ft each finish well over
// 100 ops in a 30 s window on a 2-core host, even when the host runs
// slow: the p90 needs ten samples beyond it.
const (
	defaultN  = 512
	defaultNB = 32
	// probeN is the order of the BLAS kernel probes (Dgemv N×N and the
	// rank-nb Dgemm N×N×nb).
	probeN = 768
	// setups is how many times each run sets its workload up; setup_s is
	// the median.
	setups = 9
	// blasProcs is the BLAS parallelism ceiling (blas.SetMaxProcs) for
	// the whole run. One worker per op keeps the busy threads at the
	// client count, at most 2: on a 2-core host shared with other tenants
	// a fork-join BLAS call otherwise stalls on whichever core is
	// preempted, and at N=512 two workers are no faster than one.
	blasProcs = 1
	// faultIter is the blocked iteration at whose start serve-ft's
	// injected faults strike.
	faultIter = 2
	// directInputs is the size of reduce-direct's fixed input set.
	directInputs = 4
	// ftSeeds is the size of serve-ft's fixed seed cycle.
	ftSeeds = 3
	// Batched jobs: batchItems per request, half from a hot set of
	// hotItems warmed during set-up (cache hits), half cycling through
	// coldItems distinct inputs — three times the cache, so they always
	// miss.
	batchItems   = 8
	hotItems     = 12
	cacheEntries = 64
	coldItems    = 3 * cacheEntries
)

// config is one benchmark run. Tests shrink the sizes.
type config struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	N        int     `json:"n"`
	NB       int     `json:"nb"`
	BatchNs  []int   `json:"batch_ns"`
	ProbeN   int     `json:"probe_n"`
	Setups   int     `json:"setups"`
	// Reps is how many times each traced-run extra (sibling schedule,
	// verification step, fault recovery) is timed; the median is kept.
	Reps int `json:"reps"`
	// TriadBytes, when > 0, overrides the triad footprint (4× the LLC).
	TriadBytes int64 `json:"-"`

	// refMutate, when set, rewrites every reference digest before the
	// comparison: the test seam that proves the digest gate trips.
	refMutate func(string) string
}

func newConfig(workload string, seed uint64, seconds float64, trace bool) (*config, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return &config{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		N: defaultN, NB: defaultNB, BatchNs: []int{64, 128, 256}, ProbeN: probeN,
		Setups: setups, Reps: 3,
	}, nil
}

// window is the length of the timed window.
func (c *config) window() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// deriveSeed maps (run seed, stream, index) to an input seed with the
// splitmix64 finalizer, so the workloads' input sets are disjoint and
// fully determined by --seed.
func deriveSeed(seed uint64, stream, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Input streams for deriveSeed.
const (
	streamDirect = iota + 1
	streamFT
	streamHot
	streamCold
	streamFault
)
