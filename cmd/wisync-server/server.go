package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"wisync/internal/core"
	"wisync/internal/harness"
	"wisync/internal/journal"
	"wisync/internal/sweepcache"
	"wisync/internal/workerpool"
)

// job is the wire form of one sweep request: a harness.Batch — a point
// template (workload, variant, MAC, channel, fault plan, guards, workload
// parameters, under harness.PointSpec's JSON names) crossed with "kinds",
// "cores" and "seeds" lists — plus two job-level fields. Enum fields
// decode from their flag names ("WiSync", "backoff"); unknown names and
// unknown JSON fields are a 400 at decode time, so nothing malformed ever
// reaches a worker.
type job struct {
	harness.Batch
	// Exec names the workload execution mode. Workload threads run one
	// way only, as tasks, so "task" (or nothing) is the one accepted
	// value; the removed "thread" mode and anything else are a 400.
	Exec string `json:"exec,omitempty"`
	// DeadlineMS is the end-to-end wall-clock deadline for the whole job
	// in milliseconds (0: none). When it expires, in-flight points of
	// this job abort into error rows and queued ones abort as workers
	// reach them; the worker pool is never wedged.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// parseJob is the whole job-input surface, shared by /sweep and journal
// replay. It decodes exactly one JSON object (unknown fields and trailing
// data are errors), checks the deadline, fills the default lists and
// expands the batch (harness.Batch.Expand, bounded by maxPoints before a
// single spec is allocated). Every error it returns is the client's: a
// 400.
func parseJob(body io.Reader, maxPoints int) (job, []harness.PointSpec, []sweepcache.Key, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var j job
	if err := dec.Decode(&j); err != nil {
		return j, nil, nil, fmt.Errorf("bad job: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return j, nil, nil, errors.New("bad job: trailing data after the job object")
	}
	if j.DeadlineMS < 0 {
		return j, nil, nil, errors.New("bad job: deadline_ms must be >= 0")
	}
	if j.Exec != "" && j.Exec != "task" {
		return j, nil, nil, fmt.Errorf("bad job: exec %q: only \"task\" is accepted; the thread execution mode was removed", j.Exec)
	}
	// The journal stores the job with its lists filled in.
	j.Batch = j.WithDefaults()
	specs, err := j.Expand(maxPoints)
	if err != nil {
		return j, nil, nil, fmt.Errorf("bad job: %w", err)
	}
	keys := make([]sweepcache.Key, len(specs))
	for i, spec := range specs {
		digest, err := spec.Digest()
		if err != nil {
			return j, nil, nil, fmt.Errorf("bad job: %w", err)
		}
		keys[i] = sweepcache.Key{Digest: digest, Seed: spec.Seed}
	}
	return j, specs, keys, nil
}

// rowMsg is one streamed NDJSON line: a result row (Row set, the
// byte-identical golden-format metrics line), an error row (Error set,
// Crashed additionally marking a worker-subprocess death or hard kill in
// -isolation=proc mode), or a trailing summary. Cached marks rows served
// without simulating; it is metadata, not part of the row, so repeated
// sweeps compare byte-identical on ID/Row/Error.
//
// Every successfully admitted job ends with exactly one trailer: {"done":
// true, ...} after the full row stream, or {"failed": true, "reason": ...}
// if the stream was cut short by an internal failure. A response with
// neither trailer means the server process itself died mid-stream
// (cmd/wisync-load classifies that as "truncated" — the journaled job is
// re-run when the server restarts).
type rowMsg struct {
	ID      string `json:"id,omitempty"`
	Row     string `json:"row,omitempty"`
	Cached  bool   `json:"cached,omitempty"`
	Error   string `json:"error,omitempty"`
	Crashed bool   `json:"crashed,omitempty"`

	Done   bool `json:"done,omitempty"`
	Points int  `json:"points,omitempty"`
	Errors int  `json:"errors,omitempty"`
	Hits   int  `json:"hits,omitempty"`

	Failed bool   `json:"failed,omitempty"`
	Reason string `json:"reason,omitempty"`
}

type taskResult struct {
	row    string
	cached bool
	err    error
}

// task is one enqueued sweep point; res is buffered so a worker's delivery
// never blocks on a slow or departed client. ctx carries the job's
// deadline and the client's cancellation into the worker pool: an expired
// or disconnected job's points abort instead of occupying workers.
type task struct {
	spec harness.PointSpec
	key  sweepcache.Key
	ctx  context.Context
	res  chan taskResult
	// complete, when set, is invoked by the worker after delivering the
	// result — the job uses it to count down its points and mark its
	// journal record complete independently of the client connection.
	complete func()
}

// serverOptions sizes the service; zero fields take defaults.
type serverOptions struct {
	// Workers is the number of concurrent sweep-point simulations
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueLimit bounds the points admitted but not yet finished, across
	// all requests; a job that would exceed it is rejected with 429
	// (default 4096).
	QueueLimit int
	// CacheEntries bounds the memoization store (default 65536).
	CacheEntries int
	// MaxJobPoints bounds one job's expansion (default
	// harness.MaxBatchPoints, as for wisync-bench point).
	MaxJobPoints int
	// CacheDir, when set, backs the memoization cache with a durable disk
	// tier: completed rows survive restarts (self-checksummed; corrupt
	// entries are recomputed, never served) and preload at startup.
	CacheDir string
	// WALPath, when set, journals every accepted job before its first row
	// streams; jobs incomplete at startup are replayed, and /readyz stays
	// 503 until the replay finishes.
	WALPath string
	// Isolation selects how points execute: "inproc" (default; the
	// simulation runs on a server goroutine) or "proc" (each point runs in
	// a supervised wisync-worker subprocess — crash containment, hard
	// wall-clock kills, per-point circuit breaker).
	Isolation string
	// WorkerCommand and WorkerEnv configure the subprocess argv and extra
	// environment in proc mode (defaults: wisync-worker next to this
	// binary, then $PATH).
	WorkerCommand []string
	WorkerEnv     []string
	// PointTimeout is the hard wall-clock kill per point in proc mode
	// (default 2m); BreakerAfter is the consecutive-crash count that
	// poisons a point (default 3).
	PointTimeout time.Duration
	BreakerAfter int
}

func (o serverOptions) withDefaults() serverOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 4096
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 65536
	}
	if o.MaxJobPoints <= 0 {
		o.MaxJobPoints = harness.MaxBatchPoints
	}
	if o.Isolation == "" {
		o.Isolation = "inproc"
	}
	return o
}

// server is the sweep service: a bounded queue drained by a worker pool,
// fronted by the content-addressed cache.
type server struct {
	opts  serverOptions
	cache *sweepcache.Cache
	queue chan *task
	// pending counts admitted-but-unfinished points; reserve checks it
	// against QueueLimit before a job streams anything, so enqueues never
	// block and overload is an up-front 429, not a hung request.
	pending  atomic.Int64
	jobs     atomic.Uint64
	points   atomic.Uint64
	errRows  atomic.Uint64
	rejected atomic.Uint64
	// deadlines counts points aborted by a job deadline or client
	// disconnect (error rows whose chain contains core.ErrAborted).
	deadlines atomic.Uint64
	// draining is set by StartDrain: new sweeps get 503 + Retry-After and
	// /readyz reports not-ready while in-flight jobs finish.
	draining atomic.Bool
	// ready flips true once WAL replay (if any) has finished; /readyz is
	// 503 until then. /healthz is pure liveness and never flips.
	ready                        atomic.Bool
	replayedJobs, replayedPoints atomic.Uint64
	replayErrors                 atomic.Uint64
	pool                         *workerpool.Pool // nil in inproc mode
	wal                          *journal.Journal // nil without -wal
	closed                       atomic.Bool
	start                        time.Time
	mux                          *http.ServeMux
}

func newServer(o serverOptions) (*server, error) {
	o = o.withDefaults()
	s := &server{
		opts:  o,
		queue: make(chan *task, o.QueueLimit),
		start: time.Now(),
		mux:   http.NewServeMux(),
	}
	if o.CacheDir != "" {
		c, err := sweepcache.NewDisk(o.CacheEntries, o.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cache = c
	} else {
		s.cache = sweepcache.New(o.CacheEntries)
	}
	switch o.Isolation {
	case "inproc":
	case "proc":
		s.pool = workerpool.New(workerpool.Options{
			Command:      o.WorkerCommand,
			Env:          o.WorkerEnv,
			Workers:      o.Workers,
			PointTimeout: o.PointTimeout,
			BreakerAfter: o.BreakerAfter,
		})
	default:
		return nil, fmt.Errorf("unknown isolation mode %q (want inproc or proc)", o.Isolation)
	}
	var incomplete []journal.Entry
	if o.WALPath != "" {
		var err error
		s.wal, incomplete, err = journal.Open(o.WALPath)
		if err != nil {
			return nil, err
		}
	}
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: a draining or replaying server is still alive.
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case s.draining.Load():
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case !s.ready.Load():
			w.Header().Set("Retry-After", "1")
			http.Error(w, "recovering: replaying journaled jobs", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	for i := 0; i < o.Workers; i++ {
		go s.worker()
	}
	// Replay journaled jobs in the background; the server serves traffic
	// meanwhile but reports not-ready until every replayed job finished
	// (so an orchestrator can wait for the warm, consistent state).
	go s.replay(incomplete)
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the worker pool once the queue drains, kills subprocess
// workers, and releases the journal (test lifecycle; the serving binary
// just exits). Idempotent.
func (s *server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.queue)
	if s.pool != nil {
		s.pool.Close()
	}
	if s.wal != nil {
		s.wal.Close()
	}
}

// runPoint executes one point under the configured isolation: on a server
// goroutine (inproc) or in a supervised worker subprocess (proc). Rows are
// byte-identical either way; proc mode adds crash containment and the
// hard wall-clock kill.
func (s *server) runPoint(ctx context.Context, spec harness.PointSpec) (string, error) {
	if s.pool != nil {
		return s.pool.Run(ctx, spec)
	}
	return spec.RunCtx(ctx)
}

// replay re-runs jobs the journal holds from a previous process: accepted,
// never completed. Points already in the durable cache are hits; only the
// genuinely unfinished tail recomputes. Replayed jobs count down to the
// same journal.Complete as live ones, and readiness waits for all of them.
func (s *server) replay(entries []journal.Entry) {
	defer s.ready.Store(true)
	for _, e := range entries {
		j, specs, keys, err := parseJob(bytes.NewReader(e.Payload), s.opts.MaxJobPoints)
		if err != nil {
			// A payload this process can no longer accept (downgrade,
			// a lower -max-job-points, corruption the line-level JSON
			// survived): drop it rather than wedge readiness forever.
			s.replayErrors.Add(1)
			_ = s.wal.Complete(e.ID)
			continue
		}
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if j.DeadlineMS > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(j.DeadlineMS)*time.Millisecond)
		}
		s.replayedJobs.Add(1)
		s.replayedPoints.Add(uint64(len(specs)))
		// Replay bypasses reserve: these points were admitted by a previous
		// process and must not be bounced by this one's queue pressure.
		s.pending.Add(int64(len(specs)))
		id := e.ID
		complete := s.jobCompleter(id, len(specs))
		tasks := make([]*task, len(specs))
		for i := range specs {
			tasks[i] = &task{spec: specs[i], key: keys[i], ctx: ctx, res: make(chan taskResult, 1), complete: complete}
			s.queue <- tasks[i]
		}
		for _, t := range tasks {
			<-t.res // rows land in the cache; no client is attached
		}
		cancel()
	}
}

// jobCompleter returns the per-point countdown that marks job id complete
// in the journal once all n points have been delivered — driven by the
// workers, so it fires even when the client has disconnected mid-stream.
func (s *server) jobCompleter(id uint64, n int) func() {
	if s.wal == nil {
		return nil
	}
	var left atomic.Int64
	left.Store(int64(n))
	return func() {
		if left.Add(-1) == 0 {
			_ = s.wal.Complete(id)
		}
	}
}

// StartDrain flips the server into graceful-shutdown mode: /sweep answers
// 503 + Retry-After, /readyz reports draining (while /healthz stays 200 —
// the process is alive, just finishing), and already-admitted jobs keep
// streaming until done (the caller bounds that with its grace period).
func (s *server) StartDrain() { s.draining.Store(true) }

// worker drains the queue through the cache. PointSpec.RunCtx recovers
// its own panics and the cache recovers compute panics, so a poisoned
// point reaches the client as an error row and the worker lives on; an
// expired deadline aborts the point the same way, freeing the worker. In
// proc mode the compute dispatches to a supervised subprocess instead,
// adding crash containment and the hard wall-clock kill.
func (s *server) worker() {
	for t := range s.queue {
		spec, ctx := t.spec, t.ctx
		row, cached, err := s.cache.Do(t.key, func() (string, error) { return s.runPoint(ctx, spec) })
		s.pending.Add(-1)
		s.points.Add(1)
		if err != nil {
			s.errRows.Add(1)
			if errors.Is(err, core.ErrAborted) {
				s.deadlines.Add(1)
			}
		}
		t.res <- taskResult{row: row, cached: cached, err: err}
		if t.complete != nil {
			t.complete()
		}
	}
}

// reserve admits n points against the queue limit, atomically.
func (s *server) reserve(n int) bool {
	for {
		cur := s.pending.Load()
		if cur+int64(n) > int64(s.opts.QueueLimit) {
			return false
		}
		if s.pending.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\"error\":%s}\n", msg)
}

// handleSweep validates, admits and streams one job: rows go back as NDJSON
// in point order, each flushed as soon as its prefix of the job completes,
// so a client watches a large sweep fill in while later points are still
// simulating or waiting behind other clients' work.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a sweep job to /sweep")
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	j, specs, keys, err := parseJob(http.MaxBytesReader(w, r.Body, 1<<20), s.opts.MaxJobPoints)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.reserve(len(specs)) {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full (%d points pending, limit %d)",
			s.pending.Load(), s.opts.QueueLimit)
		return
	}
	s.jobs.Add(1)

	// Journal the accepted job — fsync'd — before the first row streams:
	// from here on, a crash of this process re-runs the job at the next
	// startup instead of silently losing it.
	var complete func()
	if s.wal != nil {
		payload, err := json.Marshal(j)
		if err == nil {
			var id uint64
			if id, err = s.wal.Append(payload); err == nil {
				complete = s.jobCompleter(id, len(specs))
			}
		}
		if err != nil {
			s.pending.Add(int64(-len(specs)))
			httpError(w, http.StatusInternalServerError, "journaling job: %v", err)
			return
		}
	}

	// The job context carries both the client's disconnect (r.Context) and
	// the optional wall-clock deadline into every point: when either fires,
	// queued and in-flight points abort into error rows instead of tying up
	// workers.
	ctx := r.Context()
	if j.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	// Admitted: enqueue everything (reserve guarantees capacity, so these
	// sends never block), then stream rows in point order.
	tasks := make([]*task, len(specs))
	for i := range specs {
		tasks[i] = &task{spec: specs[i], key: keys[i], ctx: ctx, res: make(chan taskResult, 1), complete: complete}
		s.queue <- tasks[i]
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Trailer guarantee: every admitted job's stream ends in exactly one
	// trailer — {"done"} after the full row set, or {"failed"} when an
	// internal fault (including a handler panic) cuts the stream short
	// while the client is still connected. Only the death of this process
	// (or of the client) can leave a stream trailerless; the journal
	// covers the former, the client's own exit the latter.
	trailerSent := false
	defer func() {
		if trailerSent {
			return
		}
		reason := "internal error"
		if r := recover(); r != nil {
			reason = fmt.Sprintf("internal error: %v", r)
		}
		_ = enc.Encode(rowMsg{Failed: true, Reason: reason})
		if flusher != nil {
			flusher.Flush()
		}
	}()

	var hits, errs int
	for i, t := range tasks {
		res := <-t.res
		msg := rowMsg{ID: t.spec.ID(), Row: res.row, Cached: res.cached}
		if res.err != nil {
			errs++
			msg = rowMsg{ID: t.spec.ID(), Error: res.err.Error(),
				Crashed: errors.Is(res.err, workerpool.ErrCrashed) || errors.Is(res.err, workerpool.ErrKilled)}
		} else if res.cached {
			hits++
		}
		if err := streamFailHook(i); err != nil {
			panic(err) // test hook: simulate an internal mid-stream fault
		}
		if err := enc.Encode(msg); err != nil {
			// Client gone: no trailer can reach it. Remaining deliveries
			// land in buffered channels; the workers still complete them
			// into the cache and the journal countdown.
			trailerSent = true
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	trailerSent = true
	_ = enc.Encode(rowMsg{Done: true, Points: len(tasks), Errors: errs, Hits: hits})
}

// streamFailHook lets tests inject an internal fault between row i's
// completion and its encode; it is a no-op in production.
var streamFailHook = func(i int) error { return nil }

// statsResponse is the /stats payload.
type statsResponse struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Workers       int              `json:"workers"`
	QueuePending  int64            `json:"queue_pending"`
	QueueLimit    int              `json:"queue_limit"`
	Jobs          uint64           `json:"jobs"`
	Points        uint64           `json:"points"`
	ErrorRows     uint64           `json:"error_rows"`
	Rejected429   uint64           `json:"rejected_429"`
	Deadlines     uint64           `json:"deadlines"`
	Draining      bool             `json:"draining"`
	Ready         bool             `json:"ready"`
	Isolation     string           `json:"isolation"`
	Cache         sweepcache.Stats `json:"cache"`
	// Pool carries the subprocess supervision counters (restarts, kills,
	// crashes, breaker_open, ...) in proc mode; absent in inproc mode.
	Pool *workerpool.Stats `json:"pool,omitempty"`
	// Journal recovery: jobs/points re-run from the WAL at startup, jobs
	// whose journaled payload could no longer be executed, and the
	// incomplete jobs currently on record.
	ReplayedJobs   uint64 `json:"replayed_jobs,omitempty"`
	ReplayedPoints uint64 `json:"replayed_points,omitempty"`
	ReplayErrors   uint64 `json:"replay_errors,omitempty"`
	JournalPending int    `json:"journal_pending,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.opts.Workers,
		QueuePending:  s.pending.Load(),
		QueueLimit:    s.opts.QueueLimit,
		Jobs:          s.jobs.Load(),
		Points:        s.points.Load(),
		ErrorRows:     s.errRows.Load(),
		Rejected429:   s.rejected.Load(),
		Deadlines:     s.deadlines.Load(),
		Draining:      s.draining.Load(),
		Ready:         s.ready.Load(),
		Isolation:     s.opts.Isolation,
		Cache:         s.cache.Stats(),
	}
	if s.pool != nil {
		ps := s.pool.Stats()
		resp.Pool = &ps
	}
	if s.wal != nil {
		resp.ReplayedJobs = s.replayedJobs.Load()
		resp.ReplayedPoints = s.replayedPoints.Load()
		resp.ReplayErrors = s.replayErrors.Load()
		resp.JournalPending = s.wal.Pending()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
