// Command wisync-server is the sweep service: a long-running HTTP/JSON
// backend that turns CLI sweeps into jobs from many concurrent clients.
//
// A job names a workload and lists of machine kinds, core counts and
// seeds; the server crosses them into points, fans the points across a
// worker pool, and streams result rows back as NDJSON as they complete —
// in point order, flushed incrementally. Because every point is a
// deterministic seeded simulation (pinned by the golden-conformance
// suites), completed points are memoized in a content-addressed LRU cache
// keyed by (canonical config digest, seed): repeated or overlapping sweeps
// from any number of clients are served byte-identical at cache speed.
//
//	wisync-server -addr :8080 &
//	curl -s localhost:8080/sweep -d '{
//	  "workload": "tightloop",
//	  "kinds": ["Baseline", "WiSync"], "cores": [16, 64], "seeds": [1]
//	}'
//	curl -s localhost:8080/stats
//
// Endpoints:
//
//	POST /sweep    submit a job; response is application/x-ndjson, one
//	               object per point ({"id", "row", "cached"} or
//	               {"id", "error"}) and a trailing {"done": true} summary
//	               (or {"failed": true, "reason": ...} if an internal
//	               fault cut the stream short)
//	GET  /stats    cache hit/miss/in-flight metrics, queue depth, totals
//	               and worker-pool supervision counters
//	GET  /healthz  liveness: 200 whenever the process can answer
//	GET  /readyz   readiness: 503 while draining, 200 otherwise
//
// Malformed jobs — unknown workload, kind, MAC or variant, an exec other
// than "task", out-of-range cores or parameters, unknown JSON fields,
// trailing data after the job object, a job expanding past
// -max-job-points — are rejected with 400 before any simulation runs.
// When the bounded admission queue is
// full the server answers 429 with Retry-After instead of queueing
// unboundedly; cmd/wisync-load demonstrates riding that backpressure with
// thousands of concurrent requests.
//
// Crash safety is opt-in by flag, off by default so the bare server stays
// dependency- and state-free:
//
//	-cache-dir DIR   durable result cache: completed rows persist as
//	                 self-checksummed files and preload on restart;
//	                 corrupt entries are detected, dropped and recomputed
//	-isolation proc  run every point in a supervised wisync-worker
//	                 subprocess: a crashing or runaway point costs one
//	                 structured error row, never the server
//
// A job whose stream the server's death cut short is recovered by
// resubmitting it: every point is deterministic, so the points stored
// under -cache-dir before the crash come back byte-identical and only
// the rest are computed again.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wisync/internal/harness"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent sweep-point simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 4096, "max admitted-but-unfinished points before 429")
	cacheEntries := flag.Int("cache-entries", 65536, "memoization cache capacity (points)")
	maxJobPoints := flag.Int("max-job-points", harness.MaxBatchPoints, "max points one job may expand to")
	grace := flag.Duration("grace", 10*time.Second, "drain period for in-flight jobs on SIGINT/SIGTERM")
	cacheDir := flag.String("cache-dir", "", "durable result-cache directory (empty: memory only)")
	isolation := flag.String("isolation", "inproc", "point execution: inproc, or proc for supervised worker subprocesses")
	workerBin := flag.String("worker-bin", "", "wisync-worker binary for -isolation=proc (default: next to this binary, then $PATH)")
	pointTimeout := flag.Duration("point-timeout", 2*time.Minute, "hard wall-clock kill per point in proc mode")
	breaker := flag.Int("breaker", 3, "consecutive worker crashes of one point before its circuit breaker opens")
	flag.Parse()

	var workerCommand []string
	if *workerBin != "" {
		workerCommand = []string{*workerBin}
	}
	s, err := newServer(serverOptions{
		Workers:       *workers,
		QueueLimit:    *queue,
		CacheEntries:  *cacheEntries,
		MaxJobPoints:  *maxJobPoints,
		CacheDir:      *cacheDir,
		Isolation:     *isolation,
		WorkerCommand: workerCommand,
		PointTimeout:  *pointTimeout,
		BreakerAfter:  *breaker,
	})
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
		// Graceful shutdown: stop admitting (new sweeps see 503 +
		// Retry-After, /readyz flips to draining while /healthz stays
		// live), then give in-flight jobs up to the grace period to
		// finish streaming.
		log.Printf("wisync-server draining (grace %s)", *grace)
		s.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()
	log.Printf("wisync-server listening on %s (workers=%d queue=%d cache=%d isolation=%s)",
		*addr, s.opts.Workers, s.opts.QueueLimit, s.opts.CacheEntries, s.opts.Isolation)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
