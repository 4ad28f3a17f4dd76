package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// Verify forms Q once for both metrics; it must return exactly the bits
// of the one-metric accessors, which form Q each.
func TestVerifyMatchesResidualAndOrthogonalityBits(t *testing.T) {
	a := matrix.Random(120, 120, 11)
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"ft", Options{Algorithm: FaultTolerant, NB: 16}},
		{"baseline", Options{Algorithm: Baseline, NB: 16}},
		{"ft pool K=2", Options{Algorithm: FaultTolerant, NB: 16, DeviceCount: 2}},
		{"baseline pool K=2", Options{Algorithm: Baseline, NB: 16, DeviceCount: 2}},
	} {
		res, err := Reduce(a, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resid, orth := res.Verify(a)
		if want := res.Residual(a); math.Float64bits(resid) != math.Float64bits(want) {
			t.Fatalf("%s: Verify residual %x, Residual %x", c.name, math.Float64bits(resid), math.Float64bits(want))
		}
		if want := res.Orthogonality(); math.Float64bits(orth) != math.Float64bits(want) {
			t.Fatalf("%s: Verify orthogonality %x, Orthogonality %x", c.name, math.Float64bits(orth), math.Float64bits(want))
		}
		if resid > 1e-14 || orth > 1e-13 {
			t.Fatalf("%s: residual %v, orthogonality %v", c.name, resid, orth)
		}
	}
}

// A Result may be read from several goroutines at once, so forming Q
// must only read it.
func TestResultQConcurrent(t *testing.T) {
	a := matrix.Random(80, 80, 4)
	res, err := Reduce(a, Options{NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Q()
	var wg sync.WaitGroup
	got := make([]*matrix.Matrix, 2)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = res.Q()
		}(g)
	}
	wg.Wait()
	for g, q := range got {
		if d := q.Sub(want).MaxAbs(); d != 0 {
			t.Fatalf("goroutine %d: Q differs by %v", g, d)
		}
	}
}
