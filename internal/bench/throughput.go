package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The batched-throughput study behind BENCH_throughput.json: the same
// small-N job mix served twice through the real HTTP stack, once with
// whole-device leases (DeviceLanes=1 — each batched group owns its
// device outright) and once with fractional leases (DeviceLanes=4 —
// four lane clocks share each device's compute and DMA engines, see
// DESIGN.md §15). The headline figure is modeled throughput, jobs per
// simulated second of farm makespan: on small reductions no single
// engine of the K40c is saturated (at N=256 the FT reduction keeps the
// SM fabric ~37% busy), so interleaving four lanes recovers the idle
// engine time and the lane model pays out ~2.7× — the acceptance gate
// is ≥2×. A second study measures the digest-keyed result cache: the
// wall latency of a cache hit against recomputing the identical job
// (gate: ≥10×).
//
// Wall-clock quantiles are recorded descriptively only — the host is a
// single CPU core, so wall time cannot show lane concurrency; the
// modeled numbers carry the claim, exactly as in the devpool study.

// ThroughputArm is one lease-granularity arm of one problem size.
type ThroughputArm struct {
	// Lanes is the fractional lease count per device (1 = whole-device).
	Lanes int `json:"lanes"`
	Jobs  int `json:"jobs"`
	Items int `json:"items"`
	// ModeledMakespanSec is the farm's virtual-clock makespan after the
	// whole mix drained (batch_farm_makespan_seconds).
	ModeledMakespanSec float64 `json:"modeled_makespan_seconds"`
	ModeledJobsPerSec  float64 `json:"modeled_jobs_per_sec"`
	ModeledItemsPerSec float64 `json:"modeled_items_per_sec"`
	// Wall-side job latency (started→finished), descriptive only.
	WallSeconds float64 `json:"wall_seconds"`
	P50         float64 `json:"p50_seconds"`
	P95         float64 `json:"p95_seconds"`
	P99         float64 `json:"p99_seconds"`
}

// ThroughputSize compares the two arms at one matrix order.
type ThroughputSize struct {
	N          int           `json:"n"`
	NB         int           `json:"nb"`
	Whole      ThroughputArm `json:"whole"`
	Fractional ThroughputArm `json:"fractional"`
	// ModeledSpeedup is fractional over whole modeled jobs/sec.
	ModeledSpeedup float64 `json:"modeled_speedup"`
}

// CacheStudy measures the result cache: the wall latency of recomputing
// a job against serving its bit-identical cached result.
type CacheStudy struct {
	N  int `json:"n"`
	NB int `json:"nb"`
	// Pairs is how many miss/hit pairs were served; the medians below
	// absorb per-job scheduler noise.
	Pairs           int     `json:"pairs"`
	MissSeconds     float64 `json:"miss_seconds"`
	HitSeconds      float64 `json:"hit_seconds"`
	SpeedupX        float64 `json:"speedup_x"`
	Hits            float64 `json:"hits"`
	Misses          float64 `json:"misses"`
	DigestsVerified bool    `json:"digests_verified"`
}

// ThroughputArtifact is the committed BENCH_throughput.json.
type ThroughputArtifact struct {
	Devices         int              `json:"devices"`
	FractionalLanes int              `json:"fractional_lanes"`
	Capacity        int              `json:"capacity"`
	ItemsPerJob     int              `json:"items_per_job"`
	Sizes           []ThroughputSize `json:"sizes"`
	Cache           CacheStudy       `json:"cache"`
	Machine         Provenance       `json:"machine"`
}

// runJobs posts jobs request bodies, body(0) first, then waits until
// every accepted job has finished and returns their IDs in order.
func runJobs(s *serve.Server, ts *httptest.Server, jobs int, body func(i int) string) ([]string, error) {
	ids := make([]string, jobs)
	for i := range ids {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body(i))))
		if err != nil {
			return nil, err
		}
		var st struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusAccepted {
			return nil, fmt.Errorf("submit returned %d", resp.StatusCode)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			return nil, fmt.Errorf("job %s disappeared", id)
		}
		<-j.Done()
	}
	return ids, nil
}

// getJSON decodes the body of GET path into v.
func getJSON(ts *httptest.Server, path string, v any) error {
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobWindow reads one finished job's execution window (started→finished,
// queue wait excluded) off its status endpoint.
func jobWindow(ts *httptest.Server, id string) (float64, error) {
	var st serve.JobStatus
	if err := getJSON(ts, "/v1/jobs/"+id, &st); err != nil {
		return 0, err
	}
	if st.State != serve.StateDone {
		return 0, fmt.Errorf("job %s ended %s", id, st.State)
	}
	t0, err := time.Parse(time.RFC3339Nano, st.Started)
	if err != nil {
		return 0, err
	}
	t1, err := time.Parse(time.RFC3339Nano, st.Finished)
	if err != nil {
		return 0, err
	}
	return t1.Sub(t0).Seconds(), nil
}

// jobOutcome is one finished job's execution window and served payload.
type jobOutcome struct {
	duration float64
	cached   bool
	digests  []string
}

func fetchOutcome(ts *httptest.Server, id string) (jobOutcome, error) {
	var out jobOutcome
	var err error
	if out.duration, err = jobWindow(ts, id); err != nil {
		return out, err
	}
	var res struct {
		Cached       bool   `json:"cached"`
		ResultDigest string `json:"result_digest"`
		Items        []struct {
			ResultDigest string `json:"result_digest"`
			Cached       bool   `json:"cached"`
		} `json:"items"`
	}
	if err := getJSON(ts, "/v1/jobs/"+id+"/result", &res); err != nil {
		return out, err
	}
	if len(res.Items) > 0 {
		out.cached = true
		for _, it := range res.Items {
			out.digests = append(out.digests, it.ResultDigest)
			out.cached = out.cached && it.Cached
		}
	} else {
		out.cached = res.Cached
		out.digests = []string{res.ResultDigest}
	}
	return out, nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// throughputArm serves one size's job mix at one lease granularity and
// reads the modeled makespan off the farm's virtual clock.
func throughputArm(n, nb, lanes, devices, jobs, itemsPer, capacity int) (ThroughputArm, []string, error) {
	arm := ThroughputArm{Lanes: lanes, Jobs: jobs, Items: jobs * itemsPer}
	reg := obs.NewRegistry()
	s := serve.New(serve.Config{
		Capacity: capacity, QueueDepth: jobs + 4,
		Devices: devices, DeviceLanes: lanes,
		Registry: reg, Observe: serve.ObserveSLO,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := func(job int) string {
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"priority":"batch","nb":%d,"batch":[`, nb)
		for i := 0; i < itemsPer; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			// Distinct seeds everywhere: nothing coalesces or caches, every
			// item is a real reduction.
			fmt.Fprintf(&b, `{"n":%d,"seed":%d}`, n, 1+job*itemsPer+i)
		}
		b.WriteString(`]}`)
		return b.String()
	}

	start := time.Now()
	ids, err := runJobs(s, ts, jobs, body)
	if err != nil {
		return arm, nil, err
	}
	arm.WallSeconds = time.Since(start).Seconds()

	var durations []float64
	var digests []string
	for _, id := range ids {
		o, err := fetchOutcome(ts, id)
		if err != nil {
			return arm, nil, err
		}
		durations = append(durations, o.duration)
		digests = append(digests, o.digests...)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		return arm, nil, err
	}

	arm.ModeledMakespanSec = reg.GaugeValue("batch_farm_makespan_seconds")
	if arm.ModeledMakespanSec > 0 {
		arm.ModeledJobsPerSec = float64(jobs) / arm.ModeledMakespanSec
		arm.ModeledItemsPerSec = float64(arm.Items) / arm.ModeledMakespanSec
	}
	sort.Float64s(durations)
	arm.P50 = quantile(durations, 0.50)
	arm.P95 = quantile(durations, 0.95)
	arm.P99 = quantile(durations, 0.99)
	return arm, digests, nil
}

// throughputCache measures the result cache: pairs of identical jobs,
// the first recomputing (miss), the second served from the cache (hit).
// Medians over the pairs; the digest check asserts hit and miss served
// the same bits.
func throughputCache(n, nb, pairs int) (CacheStudy, error) {
	cs := CacheStudy{N: n, NB: nb, Pairs: pairs}
	reg := obs.NewRegistry()
	s := serve.New(serve.Config{
		Capacity: 2, QueueDepth: 2 * pairs,
		CacheEntries: 2 * pairs,
		Registry:     reg, Observe: serve.ObserveSLO,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	runOne := func(seed int) (jobOutcome, error) {
		ids, err := runJobs(s, ts, 1, func(int) string {
			return fmt.Sprintf(`{"n":%d,"nb":%d,"seed":%d}`, n, nb, seed)
		})
		if err != nil {
			return jobOutcome{}, err
		}
		return fetchOutcome(ts, ids[0])
	}

	var misses, hits []float64
	cs.DigestsVerified = true
	for p := 0; p < pairs; p++ {
		miss, err := runOne(100 + p)
		if err != nil {
			return cs, err
		}
		hit, err := runOne(100 + p)
		if err != nil {
			return cs, err
		}
		if miss.cached || !hit.cached {
			return cs, fmt.Errorf("throughput: pair %d cached flags miss=%v hit=%v", p, miss.cached, hit.cached)
		}
		if miss.digests[0] == "" || miss.digests[0] != hit.digests[0] {
			cs.DigestsVerified = false
		}
		misses = append(misses, miss.duration)
		hits = append(hits, hit.duration)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		return cs, err
	}
	sort.Float64s(misses)
	sort.Float64s(hits)
	cs.MissSeconds = quantile(misses, 0.5)
	cs.HitSeconds = quantile(hits, 0.5)
	if cs.HitSeconds > 0 {
		cs.SpeedupX = cs.MissSeconds / cs.HitSeconds
	}
	cs.Hits = reg.CounterValue("serve_cache_hits_total")
	cs.Misses = reg.CounterValue("serve_cache_misses_total")
	return cs, nil
}

// Throughput runs the full study: every size at both lease
// granularities (the whole-device arm is the same code path with
// DeviceLanes=1 — the lane model degenerates to serial per-device
// execution, so nothing but the lease granularity differs), plus the
// cache study. The two arms of each size serve the identical job mix,
// and the digest sets they produce are compared — the fractional
// schedule must not change a single bit.
func Throughput(sizes []int, nb, devices, lanes, jobs, itemsPer, capacity, cachePairs int) (*ThroughputArtifact, error) {
	art := &ThroughputArtifact{
		Devices: devices, FractionalLanes: lanes, Capacity: capacity,
		ItemsPerJob: itemsPer, Machine: machine(),
	}
	for _, n := range sizes {
		whole, wd, err := throughputArm(n, nb, 1, devices, jobs, itemsPer, capacity)
		if err != nil {
			return nil, err
		}
		frac, fd, err := throughputArm(n, nb, lanes, devices, jobs, itemsPer, capacity)
		if err != nil {
			return nil, err
		}
		slices.Sort(wd)
		slices.Sort(fd)
		if !slices.Equal(wd, fd) {
			return nil, fmt.Errorf("throughput: n=%d digest drift between lease granularities", n)
		}
		sz := ThroughputSize{N: n, NB: nb, Whole: whole, Fractional: frac}
		if whole.ModeledJobsPerSec > 0 {
			sz.ModeledSpeedup = frac.ModeledJobsPerSec / whole.ModeledJobsPerSec
		}
		art.Sizes = append(art.Sizes, sz)
	}
	var err error
	if art.Cache, err = throughputCache(sizes[len(sizes)-1], nb, cachePairs); err != nil {
		return nil, err
	}
	return art, nil
}

// ThroughputReport prints the study as a table.
func ThroughputReport(w io.Writer, art *ThroughputArtifact) {
	fmt.Fprintf(w, "Batched small-N throughput: whole-device vs %d fractional lanes (%d devices, capacity %d, %d items/job)\n",
		art.FractionalLanes, art.Devices, art.Capacity, art.ItemsPerJob)
	fmt.Fprintf(w, "%6s %6s %6s | %14s %14s | %9s\n",
		"n", "jobs", "items", "whole jobs/s", "frac jobs/s", "speedup")
	for _, sz := range art.Sizes {
		fmt.Fprintf(w, "%6d %6d %6d | %14.2f %14.2f | %8.2fx\n",
			sz.N, sz.Whole.Jobs, sz.Whole.Items,
			sz.Whole.ModeledJobsPerSec, sz.Fractional.ModeledJobsPerSec, sz.ModeledSpeedup)
	}
	fmt.Fprintf(w, "modeled jobs/s over farm makespan; acceptance gate at n=%d: >= 2x\n", art.Sizes[len(art.Sizes)-1].N)
	c := art.Cache
	fmt.Fprintf(w, "result cache (n=%d, %d pairs): miss %.6fs  hit %.6fs  %.0fx  digests_verified=%v\n",
		c.N, c.Pairs, c.MissSeconds, c.HitSeconds, c.SpeedupX, c.DigestsVerified)
}
