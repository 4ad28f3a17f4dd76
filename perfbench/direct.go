package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
)

// directWorkload is reduce-direct: one caller looping core.Reduce over a
// small fixed input set. Verification is only the digest compare, made
// after the window.
type directWorkload struct {
	opt    core.Options
	inputs []*matrix.Matrix
	keys   []refKey
}

// directOptions is reduce-direct's reduction: FT on a 2-device pool with
// the fused substrate and lookahead on (the default), fault-free.
func directOptions(nb int) core.Options {
	return core.Options{Algorithm: core.FaultTolerant, NB: nb, DeviceCount: 2, Substrate: "fused"}
}

// directInput is reduce-direct's i-th input.
func directInput(cfg *config, i int) (*matrix.Matrix, refKey) {
	seed := deriveSeed(cfg.Seed, streamDirect, i)
	return matrix.Random(cfg.N, cfg.N, seed), refKey{N: cfg.N, NB: cfg.NB, Seed: seed, Pool: true}
}

func newDirect(cfg *config) (*directWorkload, error) {
	w := &directWorkload{opt: directOptions(cfg.NB)}
	for i := 0; i < directInputs; i++ {
		a, k := directInput(cfg, i)
		w.inputs = append(w.inputs, a)
		w.keys = append(w.keys, k)
	}
	// Warm-up: the first reduction of the shape starts the BLAS pool and
	// fills the sync.Pools.
	if _, err := core.Reduce(w.inputs[0], w.opt); err != nil {
		return nil, fmt.Errorf("warm-up reduction: %w", err)
	}
	return w, nil
}

func (w *directWorkload) clients() int { return 1 }

func (w *directWorkload) op(idx int, tr *tracer) opRecord {
	i := idx % len(w.inputs)
	t0 := time.Now()
	res, err := core.Reduce(w.inputs[i], w.opt)
	t1 := time.Now()
	rec := opRecord{Idx: idx, Latency: t1.Sub(t0).Seconds()}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Items = 1
	rec.Checks = []check{{Key: w.keys[i], Got: res.Digest()}}
	if tr != nil {
		tr.record("core.Reduce", "", idx, t0, t1)
		rec.Layer = layerSample{Reductions: 1, ReduceWall: rec.Latency, SimSeconds: res.SimSeconds}
	}
	return rec
}

func (w *directWorkload) counters() (map[string]float64, error) { return nil, nil }

func (w *directWorkload) close() error { return nil }
