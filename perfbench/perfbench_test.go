package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// shortConfig is a workload shrunk to a few ops of small matrices.
func shortConfig(t *testing.T, workload string, seed uint64, trace bool) *config {
	t.Helper()
	cfg, err := newConfig(workload, seed, 0.3, trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg.N, cfg.NB, cfg.BatchNs, cfg.ProbeN = 96, 16, []int{32, 48, 64}, 128
	cfg.Setups, cfg.Reps, cfg.TriadBytes = 1, 1, 3<<20
	return cfg
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestShortRunsEmitEveryMetric runs each workload for a few ops, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// printed with its unit and that the run verified clean.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := runBench(shortConfig(t, wl, 1, trace), testLog{t})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d problems=%v", wl, trace, rep.Correct, rep.Failed, rep.Problems)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			line, err := json.Marshal(rep.summary())
			if err != nil {
				t.Fatal(err)
			}
			var got summary
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", wl, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, m.Name, v, m.Unit)
				}
			}
			if ok := got.Metrics["ok_frac"]; !trace && ok.Value != 1 {
				t.Errorf("%s: ok_frac = %v, want 1", wl, ok.Value)
			}
		}
	}
}

// TestDigestGateTrips feeds every workload a deliberately wrong reference:
// every op must fail verification.
func TestDigestGateTrips(t *testing.T) {
	for _, wl := range workloadNames {
		cfg := shortConfig(t, wl, 1, false)
		cfg.refMutate = func(d string) string { return strings.Repeat("0", len(d)) }
		rep, err := runBench(cfg, testLog{t})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if rep.Correct || rep.Failed != rep.Attempted || len(rep.Problems) == 0 {
			t.Errorf("%s: wrong reference passed: correct=%v failed=%d/%d", wl, rep.Correct, rep.Failed, rep.Attempted)
		}
		if v := rep.Metrics["ok_frac"].Value; v != 0 {
			t.Errorf("%s: ok_frac = %v with every op mismatched, want 0", wl, v)
		}
	}
}

// TestSecondSeedRunsClean checks that another seed's inputs verify too.
func TestSecondSeedRunsClean(t *testing.T) {
	for _, wl := range workloadNames {
		rep, err := runBench(shortConfig(t, wl, 2, false), testLog{t})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if !rep.Correct {
			t.Errorf("%s seed 2: correct=false problems=%v", wl, rep.Problems)
		}
	}
}

func TestDeriveSeedStreamsDisjoint(t *testing.T) {
	seen := map[uint64]bool{}
	for _, stream := range []int{streamDirect, streamFT, streamHot, streamCold, streamFault} {
		for i := 0; i < coldItems; i++ {
			s := deriveSeed(1, stream, i)
			if seen[s] {
				t.Fatalf("seed collision at stream %d index %d", stream, i)
			}
			seen[s] = true
		}
	}
}

func TestNearestProbe(t *testing.T) {
	var probes []probeTime
	for i := 0; i < 6; i++ {
		probes = append(probes, probeTime{at: float64(i), secs: float64(i)})
	}
	for _, c := range []struct{ at, want float64 }{
		{2.4, 2.5}, // 2 and 3
		{2.6, 2.5},
		{-1, 0.5}, // 0 and 1
		{9, 4.5},  // 4 and 5
	} {
		if got := nearestProbe(probes, c.at); got != c.want {
			t.Errorf("nearestProbe at %g = %g, want %g", c.at, got, c.want)
		}
	}
}

// testLog routes the benchmark's progress lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}
