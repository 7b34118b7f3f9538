// Package workerpool supervises a pool of OS-process sweep workers: the
// isolation backbone of cmd/wisync-server's -isolation=proc mode.
//
// Each pool slot owns one cmd/wisync-worker subprocess and feeds it one
// point at a time over the harness wire protocol (JSON lines on
// stdin/stdout). The supervisor provides what in-process execution cannot:
//
//   - a hard wall-clock kill per point (SIGKILL) — the in-process
//     budget/watchdog guards are polled cooperatively and cannot catch a
//     runaway allocation, a livelocked runtime, or an OOM spiral; a dead
//     process always can be reaped;
//   - crash containment — a worker that dies mid-point (signal, OOM,
//     runtime fault) costs exactly that point, reported as a structured
//     ErrCrashed row, while every other in-flight point is undisturbed;
//   - capped exponential backoff with jitter between restarts of a
//     crashing slot, so a hard-failing environment degrades to slow
//     retries instead of a fork bomb;
//   - a per-point circuit breaker: a point whose execution crashes the
//     worker BreakerAfter consecutive times is poisoned — further
//     submissions short-circuit to ErrBreakerOpen without being
//     dispatched, so one bad input cannot crash-loop the pool forever.
//
// Determinism is untouched: workers run the exact PointSpec.Run path, so
// a row computed in a subprocess is byte-identical to the in-process one
// (pinned by the pool round-trip tests against the golden matrix).
package workerpool

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wisync/internal/core"
	"wisync/internal/harness"
)

// Sentinel errors; the structured row errors the server streams wrap
// these, so callers classify with errors.Is.
var (
	// ErrCrashed reports a worker process that died while executing the
	// point (or desynchronized its protocol stream, which is recycled the
	// same way).
	ErrCrashed = errors.New("workerpool: worker crashed")
	// ErrKilled reports a point that exceeded the hard wall-clock timeout
	// and was SIGKILLed by the supervisor.
	ErrKilled = errors.New("workerpool: point killed after hard timeout")
	// ErrBreakerOpen reports a point refused without dispatch because it
	// already crashed the worker BreakerAfter consecutive times.
	ErrBreakerOpen = errors.New("workerpool: circuit breaker open")
	// ErrClosed reports a Run against a closed pool.
	ErrClosed = errors.New("workerpool: pool closed")
)

// Options sizes and tunes a pool; zero fields take defaults.
type Options struct {
	// Command is the argv spawning one worker (default: the wisync-worker
	// in the directory of the current executable, the layout `go build -o
	// DIR ./cmd/...` produces; without one there, "wisync-worker" from
	// $PATH).
	Command []string
	// Env entries are appended to the inherited environment of every
	// worker (tests use this to select misbehavior modes in a helper
	// binary).
	Env []string
	// Workers is the number of subprocess slots (default GOMAXPROCS).
	Workers int
	// PointTimeout is the hard wall-clock budget per point; a worker
	// still silent at that deadline is SIGKILLed and the point reported
	// as ErrKilled (default 2m).
	PointTimeout time.Duration
	// BreakerAfter is the consecutive-crash count of one point that trips
	// its circuit breaker (default 3).
	BreakerAfter int
	// BackoffBase and BackoffMax bound the restart delay of a crashing
	// slot: the delay starts at BackoffBase, doubles per consecutive
	// crash, is capped at BackoffMax, and carries ±50% jitter
	// (defaults 100ms, 5s).
	BackoffBase, BackoffMax time.Duration
	// Stderr receives worker stderr (default os.Stderr).
	Stderr io.Writer
}

func (o Options) withDefaults() Options {
	if len(o.Command) == 0 {
		o.Command = []string{"wisync-worker"}
		if exe, err := os.Executable(); err == nil {
			cand := filepath.Join(filepath.Dir(exe), "wisync-worker")
			if _, err := os.Stat(cand); err == nil {
				o.Command = []string{cand}
			}
		}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.PointTimeout <= 0 {
		o.PointTimeout = 2 * time.Minute
	}
	if o.BreakerAfter <= 0 {
		o.BreakerAfter = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	return o
}

// Stats is a snapshot of the pool's supervision counters, surfaced in the
// server's /stats.
type Stats struct {
	// Workers is the slot count; Points counts completed dispatches
	// (including error rows computed by a live worker).
	Workers int    `json:"workers"`
	Points  uint64 `json:"points"`
	// Restarts counts worker processes started to replace a dead one;
	// Kills counts hard-timeout SIGKILLs; Crashes counts workers that
	// died (or desynchronized) mid-point, kills included.
	Restarts uint64 `json:"restarts"`
	Kills    uint64 `json:"kills"`
	Crashes  uint64 `json:"crashes"`
	// BreakerOpen is the number of points currently short-circuited;
	// BreakerTrips counts breakers ever opened; BreakerRejects counts
	// submissions refused by an open breaker.
	BreakerOpen    int    `json:"breaker_open"`
	BreakerTrips   uint64 `json:"breaker_trips"`
	BreakerRejects uint64 `json:"breaker_rejects"`
}

// request is one point waiting for a worker slot. resp is buffered so a
// supervisor's delivery never blocks.
type request struct {
	spec harness.PointSpec
	key  string
	ctx  context.Context
	resp chan result
}

type result struct {
	row string
	err error
}

// Pool is a supervised set of worker subprocesses. Construct with New;
// Close kills every worker.
type Pool struct {
	opts Options
	reqs chan *request
	done chan struct{}
	wg   sync.WaitGroup

	points, restarts, kills, crashes atomic.Uint64
	breakerTrips, breakerRejects     atomic.Uint64
	mu                               sync.Mutex
	consecutive                      map[string]int
	open                             map[string]int // key -> crash count at trip time
	rng                              *rand.Rand
	closed                           atomic.Bool
}

// New builds the pool and starts its supervisors. Workers themselves are
// spawned lazily, on the first point each slot receives, so a pool in
// front of an idle server costs nothing until traffic arrives.
func New(o Options) *Pool {
	o = o.withDefaults()
	p := &Pool{
		opts:        o,
		reqs:        make(chan *request),
		done:        make(chan struct{}),
		consecutive: make(map[string]int),
		open:        make(map[string]int),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	p.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go p.supervise()
	}
	return p
}

// Close SIGKILLs every worker and stops the supervisors. In-flight Run
// calls return ErrClosed or their already-computed result.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.done)
		p.wg.Wait()
	}
}

// Stats returns a snapshot of the supervision counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	open := len(p.open)
	p.mu.Unlock()
	return Stats{
		Workers:        p.opts.Workers,
		Points:         p.points.Load(),
		Restarts:       p.restarts.Load(),
		Kills:          p.kills.Load(),
		Crashes:        p.crashes.Load(),
		BreakerOpen:    open,
		BreakerTrips:   p.breakerTrips.Load(),
		BreakerRejects: p.breakerRejects.Load(),
	}
}

// pointKey is the breaker's identity for a spec: the same content address
// the cache uses, plus the seed — two submissions count against one
// breaker exactly when they run the same simulation.
func pointKey(spec harness.PointSpec) (string, error) {
	d, err := spec.Digest()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s-s%d", d, spec.Seed), nil
}

// Run executes one point in a worker subprocess and returns its row. Every
// failure mode is a structured error: ErrBreakerOpen (refused without
// dispatch), ErrKilled (hard timeout), ErrCrashed (worker died mid-point),
// core.ErrAborted (ctx canceled — the worker is killed so the slot frees
// immediately), or the point's own error string computed by a live worker.
func (p *Pool) Run(ctx context.Context, spec harness.PointSpec) (string, error) {
	key, err := pointKey(spec)
	if err != nil {
		return "", err
	}
	if n, open := p.breakerState(key); open {
		p.breakerRejects.Add(1)
		return "", fmt.Errorf("workerpool: point %s crashed its worker %d consecutive times: %w",
			spec.ID(), n, ErrBreakerOpen)
	}
	req := &request{spec: spec, key: key, ctx: ctx, resp: make(chan result, 1)}
	select {
	case p.reqs <- req:
	case <-ctx.Done():
		return "", fmt.Errorf("workerpool: point %s canceled before dispatch: %w", spec.ID(), core.ErrAborted)
	case <-p.done:
		return "", ErrClosed
	}
	// The supervisor that accepted the request always answers, including
	// on ctx cancellation (it kills the worker and reports the abort).
	res := <-req.resp
	return res.row, res.err
}

// breakerState reports the crash count and whether the breaker is open
// for key.
func (p *Pool) breakerState(key string) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, open := p.open[key]; open {
		return n, true
	}
	return p.consecutive[key], false
}

// recordCrash counts one worker crash against key, tripping its breaker
// at the configured threshold.
func (p *Pool) recordCrash(key string) {
	p.crashes.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.consecutive[key]++
	if n := p.consecutive[key]; n >= p.opts.BreakerAfter {
		if _, open := p.open[key]; !open {
			p.open[key] = n
			p.breakerTrips.Add(1)
		}
	}
}

// recordServed clears key's consecutive-crash count: the worker survived
// the point (whether the point itself succeeded or returned an error row).
func (p *Pool) recordServed(key string) {
	p.mu.Lock()
	delete(p.consecutive, key)
	p.mu.Unlock()
}

// jitteredBackoff doubles delay toward the cap and returns it with ±50%
// jitter, so a fleet of crashing slots does not restart in lockstep.
func (p *Pool) jitteredBackoff(delay *time.Duration) time.Duration {
	d := *delay
	if *delay < p.opts.BackoffMax {
		*delay *= 2
		if *delay > p.opts.BackoffMax {
			*delay = p.opts.BackoffMax
		}
	}
	p.mu.Lock()
	j := p.rng.Int63n(int64(d) + 1)
	p.mu.Unlock()
	return d/2 + time.Duration(j)
}

// sleep waits d unless the pool closes first.
func (p *Pool) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.done:
	}
}
