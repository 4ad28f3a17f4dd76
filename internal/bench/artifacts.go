package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/blas"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Artifact is one committed BENCH_*.json and the experiment that
// produces it. Run fixes the canonical grid, so the committed file is
// always exactly what `go run ./cmd/experiments -exp <Name>` writes; no
// flag and no test can produce a non-canonical one.
type Artifact struct {
	Name string // the cmd/experiments -exp selector
	File string // file name at the repository root
	// Deterministic artifacts hold modeled (cost-only) or structural
	// figures only: regenerating them on any machine reproduces the
	// committed bytes. The others hold wall timings and carry a
	// Provenance block naming the machine that measured them.
	Deterministic bool
	// Run runs the experiment, prints its text report to w, and returns
	// the artifact value.
	Run func(w io.Writer) (any, error)
	// New returns a pointer to an empty value of the artifact's type.
	New func() any
}

func artifact[T any](name, file string, deterministic bool, run func() (T, error), report func(io.Writer, T)) Artifact {
	return Artifact{
		Name: name, File: file, Deterministic: deterministic,
		Run: func(w io.Writer) (any, error) {
			v, err := run()
			if err != nil {
				return nil, err
			}
			report(w, v)
			return v, nil
		},
		New: func() any { return new(T) },
	}
}

// Artifacts lists every committed BENCH artifact with its canonical run.
var Artifacts = []Artifact{
	artifact("lookahead", "BENCH_lookahead.json", true, func() (*LookaheadArtifact, error) {
		return Lookahead([]int{512, 1024, 2048}, []int{1, 2, 4}, 32, sim.K40c())
	}, LookaheadReport),
	artifact("multigpu", "BENCH_multigpu.json", true, func() (*MultiGPUArtifact, error) {
		return MultiGPU(2048, 16, []int{1, 2, 4}, sim.K40c())
	}, MultiGPUReport),
	artifact("failstop", "BENCH_failstop.json", true, func() (*FailStopArtifact, error) {
		return FailStop([]int{512, 1024, 2048}, []int{2, 3, 4}, 32, sim.K40c())
	}, FailStopReport),
	artifact("obs", "BENCH_obs.json", true, func() ([]ObsRow, error) {
		return Obs([]int{1022, 2046, 4030}, 32, sim.K40c())
	}, ObsReport),
	artifact("blas", "BENCH_blas.json", true, func() (*BlasCatalog, error) {
		return NewBlasCatalog(), nil
	}, BlasCatalogReport),
	artifact("blasft", "BENCH_blasft.json", false, func() (*BlasFTArtifact, error) {
		return BlasFT(BlasFTShapes, 5, sim.K40c())
	}, BlasFTReport),
	artifact("serve_throughput", "BENCH_throughput.json", false, func() (*ThroughputArtifact, error) {
		return Throughput([]int{64, 128, 256}, 32, 2, 4, 8, 2, 16, 5)
	}, ThroughputReport),
	artifact("serveobs", "BENCH_serveobs.json", false, func() (*ServeObsArtifact, error) {
		return ServeObs(512, 32, 8, 1, 7)
	}, ServeObsReport),
}

// WriteArtifact writes v to dir/file in the committed encoding.
func WriteArtifact(dir, file string, v any) error {
	buf, err := encodeArtifact(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), buf, 0o644)
}

// encodeArtifact is the committed encoding: indented JSON and a newline.
func encodeArtifact(v any) ([]byte, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	return append(buf, '\n'), err
}

// Provenance names the build and machine behind a wall-timed artifact.
type Provenance struct {
	Build      serve.BuildInfo `json:"build"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	// AVX2 is whether the blas assembly kernels were active.
	AVX2 bool `json:"avx2_kernels"`
}

func machine() Provenance {
	return Provenance{
		Build:      serve.Build(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		AVX2:       blas.Kernels().AVX2,
	}
}
