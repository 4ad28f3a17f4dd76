// Command fthessd serves Hessenberg / tridiagonal reductions over HTTP:
// a bounded job scheduler in front of the simulated hybrid platform, with
// fault injection, Matrix Market uploads, Prometheus metrics, and
// graceful draining on SIGINT/SIGTERM.
//
// Examples:
//
//	fthessd -addr :8080 -capacity 2 -queue 16
//	curl -s -X POST localhost:8080/v1/jobs -d '{"n":256,"algorithm":"ft"}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -s localhost:8080/v1/jobs/j1/result
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/blas"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	capacity := flag.Int("capacity", 2, "max concurrent reductions")
	queue := flag.Int("queue", 16, "queued jobs beyond capacity before 429")
	maxn := flag.Int("maxn", 4096, "largest matrix order a job may request")
	maxBody := flag.Int64("max-body", 8<<20, "request body limit in bytes (bounds uploads)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	threads := flag.Int("threads", 0, "host BLAS worker threads (0 = GOMAXPROCS)")
	devices := flag.Int("devices", 0, "simulated device farm size jobs can lease from (0 = one private device per job)")
	lanes := flag.Int("lanes", 0, "fractional lanes per device for batched jobs (0 = batched requests rejected)")
	cacheEntries := flag.Int("cache", 0, "digest-keyed result cache entries (0 = caching off)")
	observe := flag.String("obs", serve.ObserveFull, "observation level: full (per-job traces, journals, labeled series) or slo (anonymous SLO telemetry only)")
	flight := flag.Int("flight", 0, "FT flight-recorder capacity dumped at /debug/events (0 = default 256)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (operator-facing; off by default)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *threads > 0 {
		blas.SetMaxProcs(*threads)
	}

	if *observe != serve.ObserveFull && *observe != serve.ObserveSLO {
		fmt.Fprintf(os.Stderr, "bad -obs level %q (want %q or %q)\n", *observe, serve.ObserveFull, serve.ObserveSLO)
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		Capacity:           *capacity,
		QueueDepth:         *queue,
		MaxN:               *maxn,
		MaxBodyBytes:       *maxBody,
		Devices:            *devices,
		DeviceLanes:        *lanes,
		CacheEntries:       *cacheEntries,
		Observe:            *observe,
		FlightRecorderSize: *flight,
		EnablePprof:        *pprofOn,
	})
	// Fold host BLAS throughput into the same /metrics exposition.
	blas.SetObs(srv.Registry())

	// A client that never finishes its request headers would otherwise
	// hold a connection open forever (slowloris). Request bodies stay
	// untimed; -max-body bounds their size.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("shutting down: draining in-flight jobs (timeout %s)", *drain)
		sd, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sd); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := srv.Shutdown(sd); err != nil {
			log.Printf("scheduler drain hit the deadline; in-flight jobs were cancelled: %v", err)
		}
	}()

	bi := serve.Build()
	log.Printf("fthessd %s (go %s, dirty=%v)", orDev(bi.Revision), bi.GoVersion, bi.Dirty)
	log.Printf("fthessd listening on %s (capacity=%d queue=%d maxn=%d devices=%d lanes=%d cache=%d obs=%s)",
		*addr, *capacity, *queue, *maxn, *devices, *lanes, *cacheEntries, *observe)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("listen: %v", err)
	}
	<-drained
	log.Printf("fthessd stopped")
}

// orDev names a build without VCS stamping (e.g. `go run` of an
// exported tree) in the startup banner.
func orDev(rev string) string {
	if rev == "" {
		return "(dev build)"
	}
	return rev
}
