package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the program sees; --trace 0 prints
// them. fail_frac is reported as its complement ok_frac so that the
// metric is never 0; fail_frac itself is in the result file.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"items_per_s", "1/s"},
	{"ok_frac", "ratio"},
	{"peak_mem_mb", "MiB"},
}

// perLayerMetrics are measured in the traced run, per op unless the name
// says otherwise; --trace 1 prints them. Each traced run measures every
// one: the workload-scoped ones on its own ops (0 where the layer does no
// work in that workload), the fixed-input probes and sibling schedules on
// the inputs named in extras.
var perLayerMetrics = []metricDef{
	{"blas.gemv_s", "s"}, {"blas.gemv_ft_s", "s"},
	{"blas.ger_s", "s"}, {"blas.ger_ft_s", "s"},
	{"blas.gemm_s", "s"}, {"blas.gemm_ft_s", "s"},
	{"blas.gflops", "GFLOP/s"},
	{"blas.dgemv_gbps", "GB/s"}, {"blas.dgemm_rank_nb_gflops", "GFLOP/s"},
	{"blas.triad_gbps", "GB/s"}, {"blas.dgemv_roof_frac", "ratio"},
	{"lapack.q_form_s", "s"}, {"lapack.residual_s", "s"},
	{"lapack.orthogonality_s", "s"}, {"lapack.verify_frac", "ratio"},
	{"core.reduce_s", "s"},
	{"core.reduce_s.ft_k0", "s"}, {"core.reduce_s.baseline_k0", "s"},
	{"core.reduce_s.ft_k1", "s"}, {"core.reduce_s.ft_k2", "s"},
	{"core.reduce_s.ft_k2_fused", "s"},
	{"ft.overhead_frac", "ratio"},
	{"devpool.k1_over_k0", "ratio"}, {"devpool.k2_over_k0", "ratio"},
	{"ft.fused_over_swept", "ratio"},
	{"ft.recovery_s", "s"},
	{"ft.detections", "count"}, {"ft.recoveries", "count"},
	{"ft.q_corrections", "count"}, {"ft.substrate_checks", "count"},
	{"gpu.kernels", "count"}, {"gpu.transfers", "count"},
	{"gpu.transfer_bytes", "bytes"},
	{"sim.model_over_wall", "ratio"},
	{"sim.model_over_wall.ft_k0", "ratio"}, {"sim.model_over_wall.baseline_k0", "ratio"},
	{"sim.model_over_wall.ft_k1", "ratio"}, {"sim.model_over_wall.ft_k2", "ratio"},
	{"sim.model_over_wall.ft_k2_fused", "ratio"},
	{"serve.queue_wait_s", "s"}, {"serve.lease_wait_s", "s"},
	{"serve.reduce_s", "s"}, {"serve.post_reduce_s", "s"},
	{"serve.http_s", "s"}, {"serve.result_bytes", "bytes"},
	{"serve.rejected", "count"},
	{"batch.cache_hit_frac", "ratio"}, {"batch.coalesced", "count"},
	{"batch.items_computed", "count"}, {"batch.groups", "count"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full result file of one run.
type report struct {
	Provenance provenance `json:"provenance"`
	Config     *config    `json:"config"`

	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailFrac  float64  `json:"fail_frac"`
	// Samples is the number of op latencies behind op_p50_s / op_p90_s.
	Samples      int       `json:"samples"`
	SetupSeconds []float64 `json:"setup_seconds"`
	// SetupScaled and Unscaled: see the host_speed note.
	SetupScaled []float64          `json:"setup_seconds_scaled"`
	HostProbe   []float64          `json:"host_probe_s"`
	Unscaled    map[string]float64 `json:"unscaled"`
	WaitMethod  string             `json:"wait_method"`

	Metrics map[string]metricValue `json:"metrics"`
	Notes   map[string]string      `json:"notes"`
	Spans   []span                 `json:"spans,omitempty"`
}

func (rep *report) set(name string, v float64) {
	rep.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (rep *report) summary() summary {
	defs := endToEndMetrics
	if rep.Config.Trace {
		defs = perLayerMetrics
	}
	out := summary{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = rep.Metrics[d.name]
	}
	return out
}

// provenance records what produced a result and on which machine.
type provenance struct {
	Build      serve.BuildInfo `json:"build"`
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	CPUModel   string          `json:"cpu_model,omitempty"`
	AVX2       bool            `json:"avx2_fma"`
	LLCBytes   int64           `json:"llc_bytes"`
	Seed       uint64          `json:"seed"`
	Started    string          `json:"started"`
}

func collectProvenance(cfg *config) provenance {
	model, avx2 := cpuInfo()
	return provenance{
		Build:      serve.Build(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   model,
		AVX2:       avx2,
		LLCBytes:   llcBytes(),
		Seed:       cfg.Seed,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuInfo reads the CPU model and whether it has AVX2 and FMA (the BLAS
// micro-kernel's fast path) from /proc/cpuinfo; zero values elsewhere.
func cpuInfo() (model string, avx2 bool) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			fl := " " + val + " "
			return model, strings.Contains(fl, " avx2 ") && strings.Contains(fl, " fma ")
		}
	}
	return model, false
}

// defaultLLC stands in when the cache size cannot be read.
const defaultLLC = 32 << 20

// llcBytes reads the size of the last-level cache of CPU 0.
func llcBytes() int64 {
	best := int64(0)
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		return defaultLLC
	}
	return best
}

// memSampler tracks the peak resident set size of the process.
type memSampler struct {
	stop, done chan struct{}
	peak       int64
	err        error
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			rss, err := residentBytes()
			if err != nil {
				m.err = err
				return
			}
			m.peak = max(m.peak, rss)
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak in MiB.
func (m *memSampler) finish() (float64, error) {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20), m.err
}

func residentBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("read resident set size: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("read resident set size: malformed /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("read resident set size: %w", err)
	}
	return pages * int64(os.Getpagesize()), nil
}
