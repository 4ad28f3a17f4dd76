//go:build race

package blas

// raceEnabled reports whether the race detector is compiled in; the
// wall-clock measurements skip their bars under its ~10-20× slowdown.
const raceEnabled = true
