//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in; the
// wall-clock bars are skipped under its ~10-20× slowdown of the scalar
// checksum paths.
const raceEnabled = true
