package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// servedWorkload drives an in-process serve.Server over loopback HTTP.
type servedWorkload struct {
	srv      *serve.Server
	hs       *http.Server
	base     string
	client   *http.Client
	serveErr chan error
	// build returns op idx's request and the checks its factorizations
	// must pass (Got and Reported are filled from the result).
	build func(idx int) (*serve.JobRequest, []check)
}

// servedClients is the number of closed-loop HTTP clients (and
// connections): the load is sized for a 2-core host.
const servedClients = 2

var errRefused = errors.New("submission refused with 429")

// startServed starts the server and its listener, then runs the warm-up
// requests through the full HTTP path.
func startServed(scfg serve.Config, build func(int) (*serve.JobRequest, []check), warm ...*serve.JobRequest) (*servedWorkload, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	srv := serve.New(scfg)
	w := &servedWorkload{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: servedClients, MaxIdleConnsPerHost: servedClients}},
		serveErr: make(chan error, 1),
		build:    build,
	}
	go func() { w.serveErr <- w.hs.Serve(ln) }()
	for _, req := range warm {
		if _, err := w.roundTrip(&opRecord{Idx: -1}, req, nil); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up job: %w", err), w.close())
		}
	}
	return w, nil
}

func (w *servedWorkload) clients() int { return servedClients }

func (w *servedWorkload) op(idx int, tr *tracer) opRecord {
	req, checks := w.build(idx)
	rec := opRecord{Idx: idx}
	res, err := w.roundTrip(&rec, req, tr)
	switch {
	case errors.Is(err, errRefused):
		rec.Refused = true
		return rec
	case err != nil:
		rec.Err = err.Error()
		return rec
	}
	if len(req.Batch) > 0 {
		if len(res.Items) != len(checks) {
			rec.Err = fmt.Sprintf("result has %d items, request had %d", len(res.Items), len(checks))
			return rec
		}
		for i := range checks {
			checks[i].Got = res.Items[i].ResultDigest
		}
	} else {
		checks[0].Got = res.ResultDigest
		checks[0].Reported = res.Detections > 0 || res.QCorrections > 0
	}
	rec.Checks = checks
	rec.Items = len(checks)
	return rec
}

// roundTrip runs one job: POST, wait on Job(id).Done(), GET the result.
// The op time ends when the result body has been read; the traced
// attribution and the DELETE that forgets the job come after it.
func (w *servedWorkload) roundTrip(rec *opRecord, req *serve.JobRequest, tr *tracer) (*serve.JobResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var st serve.JobStatus
	if err := decodeBody(resp, http.StatusAccepted, &st); err != nil {
		if resp.StatusCode == http.StatusTooManyRequests {
			return nil, errRefused
		}
		return nil, fmt.Errorf("submit: %w", err)
	}
	tPosted := time.Now()
	job, ok := w.srv.Job(st.ID)
	if !ok {
		return nil, fmt.Errorf("job %s unknown to the server", st.ID)
	}
	<-job.Done()
	tDone := time.Now()
	resp, err = w.client.Get(w.base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("get result: %w", err), w.forget(st.ID))
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	rec.Latency = t1.Sub(t0).Seconds()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("read result: %w", err), w.forget(st.ID))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.Join(fmt.Errorf("job %s: %s: %s", st.ID, resp.Status, bytes.TrimSpace(data)), w.forget(st.ID))
	}
	var res serve.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, errors.Join(fmt.Errorf("decode result: %w", err), w.forget(st.ID))
	}
	if tr != nil {
		tr.record("op", "", rec.Idx, t0, t1)
		tr.record("http.submit", "op", rec.Idx, t0, tPosted)
		tr.record("job.done_wait", "op", rec.Idx, tPosted, tDone)
		tr.record("http.result", "op", rec.Idx, tDone, t1)
		if err := w.attribute(rec, st.ID, &res, len(data), tr); err != nil {
			return nil, errors.Join(err, w.forget(st.ID))
		}
	}
	return &res, w.forget(st.ID)
}

// chromeEvent is the part of the job trace's Chrome events used here.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs since the job's root span opened
	Dur  float64 `json:"dur"` // µs
	Pid  int     `json:"pid"` // 1: wall-clock lifecycle, 2: simulated device
}

// attribute splits a traced op's latency over the serving layers, from
// the job status and the job's wall-clock trace (GET /v1/jobs/{id}/trace).
func (w *servedWorkload) attribute(rec *opRecord, id string, res *serve.JobResult, resultBytes int, tr *tracer) error {
	var st serve.JobStatus
	if err := w.getJSON("/v1/jobs/"+id, &st); err != nil {
		return err
	}
	var events []chromeEvent
	if err := w.getJSON("/v1/jobs/"+id+"/trace", &events); err != nil {
		return err
	}
	created, err1 := time.Parse(time.RFC3339Nano, st.Created)
	started, err2 := time.Parse(time.RFC3339Nano, st.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, st.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		return fmt.Errorf("job %s status times: %w", id, err)
	}
	l := layerSample{
		QueueWait:   st.QueueWaitSeconds,
		LeaseWait:   st.LeaseWaitSeconds,
		Run:         finished.Sub(started).Seconds(),
		ResultBytes: resultBytes,
	}
	var reduces [][2]float64
	for _, e := range events {
		if e.Pid != 1 || e.Ph != "X" {
			continue
		}
		at := created.Add(time.Duration(e.Ts * float64(time.Microsecond)))
		tr.record("serve."+e.Name, "job.done_wait", rec.Idx, at, at.Add(time.Duration(e.Dur*float64(time.Microsecond))))
		if strings.HasPrefix(e.Name, "ft.reduce") || strings.HasPrefix(e.Name, "hybrid.reduce") {
			reduces = append(reduces, [2]float64{e.Ts / 1e6, (e.Ts + e.Dur) / 1e6})
			l.ReduceWall += e.Dur / 1e6
		}
	}
	l.Reductions = len(reduces)
	l.Reduce = covered(reduces)
	l.HTTP = rec.Latency - l.QueueWait - l.Run
	if len(res.Items) > 0 {
		for _, it := range res.Items {
			if !it.Cached {
				l.SimSeconds += float64(it.SimSeconds)
			}
		}
	} else if !res.Cached {
		l.SimSeconds = float64(res.SimSeconds)
	}
	rec.Layer = l
	return nil
}

// covered is the length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	total, end := 0.0, 0.0
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

func (w *servedWorkload) getJSON(path string, v any) error {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if err := decodeBody(resp, http.StatusOK, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// forget deletes a finished job, as a polite client does; it also prunes
// the job's metric series.
func (w *servedWorkload) forget(id string) error {
	req, err := http.NewRequest(http.MethodDelete, w.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return fmt.Errorf("forget job %s: %w", id, err)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("forget job %s: %w", id, err)
	}
	if err := decodeBody(resp, http.StatusAccepted, nil); err != nil {
		return fmt.Errorf("forget job %s: %w", id, err)
	}
	return nil
}

// decodeBody reads and closes the body, checks the status and decodes
// the JSON into v (when v is non-nil).
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

// counters scrapes GET /metrics and sums every series over its labels.
func (w *servedWorkload) counters() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	sums := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.IndexAny(line, "{ ")
		sp := strings.LastIndexByte(line, ' ')
		if cut < 0 || sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: line %q: %w", line, err)
		}
		sums[line[:cut]] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return sums, nil
}

func (w *servedWorkload) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(w.hs.Shutdown(ctx), w.srv.Shutdown(ctx))
	if e := <-w.serveErr; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	w.client.CloseIdleConnections()
	return err
}

// newServeFT is serve-ft: FT jobs on the default schedule (single device,
// swept substrate, lookahead on) cycling a fixed seed set; one job in
// four carries one transient fault.
func newServeFT(cfg *config) (*servedWorkload, error) {
	seeds := make([]uint64, ftSeeds)
	for i := range seeds {
		seeds[i] = deriveSeed(cfg.Seed, streamFT, i)
	}
	faultSeed := deriveSeed(cfg.Seed, streamFault, 0)
	build := func(idx int) (*serve.JobRequest, []check) {
		s := seeds[idx%len(seeds)]
		req := &serve.JobRequest{N: cfg.N, NB: cfg.NB, Seed: s}
		k := refKey{N: cfg.N, NB: cfg.NB, Seed: s}
		if area := ftFaultArea(idx); area != 0 {
			req.Faults = []serve.FaultSpec{{Area: area, Iter: faultIter, Seed: faultSeed}}
			k.Area, k.FaultSeed = area, faultSeed
		}
		return req, []check{{Key: k}}
	}
	warm, _ := build(0)
	return startServed(serve.Config{Capacity: 2}, build, warm)
}

// ftFaultArea is the fault area of serve-ft's op idx: one job in four
// carries a fault, rotating over areas 1, 2 and 3 (0: fault-free).
func ftFaultArea(idx int) int {
	if idx%4 != 3 {
		return 0
	}
	return 1 + (idx/4)%3
}

// newServeBatch is serve-batch: batched jobs of batchItems small items,
// half from a hot set warmed during set-up, half from a cold pool three
// times the cache.
func newServeBatch(cfg *config) (*servedWorkload, error) {
	item := func(stream, i int) (serve.BatchItemSpec, check) {
		n := cfg.BatchNs[i%len(cfg.BatchNs)]
		seed := deriveSeed(cfg.Seed, stream, i)
		return serve.BatchItemSpec{N: n, NB: cfg.NB, Seed: seed},
			check{Key: refKey{N: n, NB: cfg.NB, Seed: seed}}
	}
	build := func(idx int) (*serve.JobRequest, []check) {
		req := &serve.JobRequest{Priority: serve.PriorityBatch}
		var checks []check
		half := batchItems / 2
		for k := 0; k < half; k++ {
			for _, src := range []struct{ stream, i int }{
				{streamHot, (half*idx + k) % hotItems},
				{streamCold, (half*idx + k) % coldItems},
			} {
				it, c := item(src.stream, src.i)
				req.Batch = append(req.Batch, it)
				checks = append(checks, c)
			}
		}
		return req, checks
	}
	warm := &serve.JobRequest{Priority: serve.PriorityBatch}
	for i := 0; i < hotItems; i++ {
		it, _ := item(streamHot, i)
		warm.Batch = append(warm.Batch, it)
	}
	return startServed(serve.Config{Capacity: 2, Devices: 2, DeviceLanes: 4, CacheEntries: cacheEntries}, build, warm)
}
