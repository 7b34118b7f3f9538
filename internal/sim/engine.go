// Package sim implements a deterministic, single-threaded discrete-event
// simulation engine with cooperative processes.
//
// # Execution model
//
// The engine advances a cycle-resolution clock and executes events in
// (time, priority, sequence) order, so identical inputs always produce
// identical simulations. Events live in a two-level queue (see "Timing
// wheel" below); scheduling one is an append into a reused slice, never a
// per-event heap allocation. Hardware models are written in one of two
// styles:
//
//   - Callback events (Schedule/ScheduleAt): plain functions the engine
//     invokes inline from its run loop. This is the fast path — one event
//     costs a heap push, a pop, and a function call.
//
//   - Processes (Go): goroutines with blocking control flow (Sleep, Park,
//     Resource.Acquire) for models whose logic does not flatten naturally
//     into callbacks — OS cases, multi-step protocol transactions. Exactly
//     one process runs at a time, enforced by a single control token.
//
// Process switches ride the Go scheduler, which makes them ~100x more
// expensive than callbacks, so the engine avoids them at three levels:
//
//  1. Zero-handoff Sleep: when a sleeping process's own wake-up would be
//     the very next event popped (nothing precedes it in the (time,
//     priority, sequence) order), the process advances the clock inline
//     and keeps running without parking. Chains of Sleeps with no
//     interleaved foreign events therefore cost one function call each
//     instead of two channel sends and a scheduler round trip. The fast
//     path is bounded by the run horizon (RunUntil's limit), so a process
//     can never advance the clock past the window the caller asked for.
//
//  2. Direct baton passing: a process that must block runs the scheduler
//     loop itself (runEvents), executing callback events inline and
//     handing the token straight to the next process over its resume
//     channel — one rendezvous per switch instead of two, because the
//     engine goroutine stays parked while processes pass control among
//     themselves.
//
//  3. Self-dispatch: if the blocking process pops its own wake-up (an
//     inline callback — an arbiter grant, an invalidation — re-woke it),
//     it just keeps running; no channel operation at all.
//
// All three are order-preserving by construction: they only short-circuit
// the exact dispatch the event queue would have performed next, so results
// are bit-identical to a naive engine-centric loop.
//
// # Continuations
//
// Multi-step protocol transactions used to be the stronghold of the
// process style: a directory transaction sleeps several times (request
// flight, queueing, hold, reply), and under contention every one of those
// sleeps is a forced process switch. Such models are instead written as
// engine-scheduled continuation chains: each suspension schedules the next
// step as a plain callback event, and the initiating process — which must
// suspend anyway, because its thread is architecturally stalled — parks
// once and is dispatched directly by the chain's final reply event. A
// chain that must wait hands its next step to whatever it waits on, which
// schedules the step when the wait ends: the directory's per-line FIFO
// lock (package mem), WaitQueue.WaitFn, and the channel's
// wireless.Network.SendAsync/SendParked.
//
// The two styles compose bit-identically by construction, so a model can
// be converted from blocking to continuation form without moving a single
// simulated result: every blocking suspension consumes exactly one event
// sequence number at the point it blocks (Sleep and Wake schedule one
// dispatch; a free Acquire and a busy enqueue schedule none), and the
// mirrors consume sequence numbers at the same execution points, so every
// step of the converted model runs at exactly the same (time, priority,
// sequence) position as the blocking original — only on the engine-driving
// goroutine rather than its own. The golden-conformance suite in package
// harness pins this equivalence end to end.
//
// A run collapses a burst of same-cycle continuations into one event. When
// a model would schedule k callbacks back to back with one delay, they get
// k consecutive sequence numbers at one (time, priority), so nothing else
// can dispatch between them. The model may instead schedule one event
// whose callback executes the k members in order. The run's key sits
// where its first member's key would. The k-1 sequence numbers it does
// not consume leave gaps, and gaps reorder nothing, because keys only
// break ties. What a run must keep is the fast path's view of the queue:
// while later members remain, their events would still be queued at the
// current cycle, so no member may advance the clock inline. The run
// declares the members still to come with RunAhead before each member,
// and Sleep and SleepThen (see Tasks) take their fast path only when that
// count is 0. The Broadcast Memory's spin herd (package bmem) is the user:
// one commit to a spun-on word moves every spinner through two runs, the
// replica load RT after the commit and its delivery RT later, instead of
// two events per spinner.
//
// # Tasks
//
// Workload threads can run in the same continuation form. A Task (task.go)
// is the goroutine-free counterpart of a Proc: it is spawned with GoTask at
// the same sequence position as Go, advances exclusively through completion
// callbacks (SleepThen, the async hardware-model mirrors, WaitQueue.WaitFn),
// and retires with Finish. A workload of Tasks runs entirely on the
// goroutine driving the engine — zero process switches — while consuming
// sequence numbers at exactly the points its blocking twin would, so the
// two execution modes are interchangeable without moving a simulated
// result.
//
// Continuation chains get the same inline collapse Sleep enjoys: SleepThen
// has a zero-handoff fast path that, when the continuation would be the
// very next event popped, skips the event queue entirely — the clock
// advances inline and the continuation lands in the engine's trampoline
// slot (cont), which the scheduler loop drains after each callback event.
// The trampoline keeps arbitrarily long uncontended chains at constant
// stack depth: each continuation returns to the scheduler before the next
// one runs, so continuation-form loops never recurse.
//
// # Timing wheel
//
// Event storage is hierarchical: a small timing wheel of one-cycle buckets
// in front of a typed 4-ary min-heap (queue.go). The simulator's sleeps
// are overwhelmingly short — cache round trips, channel slots, backoff
// windows and barrier episodes land 2–110 cycles ahead — so almost every
// event is scheduled within the wheel horizon (256 cycles) and costs an
// O(1) bucket append and a bitmap-scan pop, no comparisons. The rare
// far-future event (an application's long compute phase, an open-ended run
// horizon) falls back to the heap, and first/pop merge the two levels by
// comparing their minima, so the composite dispatches in exactly the
// (time, priority, sequence) order a single heap would — the fuzz/oracle
// suite in queue_fuzz_test.go drives both against container/heap,
// including events that cross the horizon between push and pop and
// same-tick priority ties. Within a bucket, PrioNormal and PrioLate events
// live in separate FIFOs (sequence numbers are monotone, so FIFO order is
// dispatch order). SchedStats reports the wheel-hit / heap-fallback split,
// surfaced by wisync-bench -v.
//
// # Determinism
//
// The engine owns all randomness through a seeded splitmix64 generator,
// keeping collision backoff and workload jitter reproducible. Every event
// gets a unique, monotonically increasing sequence number, so the event
// order is a strict total order: same seed, same schedule, same results —
// regardless of whether sleeps take the fast or slow path, and regardless
// of how many engines run concurrently (engines share no state; see
// package harness for the sweep-level worker pool built on that).
package sim

import (
	"fmt"
	"sort"
)

// Time is a simulation timestamp in processor cycles (1 ns at 1 GHz).
type Time uint64

// maxTime is the largest representable timestamp, used as the run limit
// when no horizon applies.
const maxTime = ^Time(0)

// Priority orders events that fire on the same cycle. Lower runs first.
// Most events use PrioNormal; arbiters that must observe every request
// registered during a cycle run at PrioLate.
type Priority int8

const (
	// PrioNormal is the default event priority.
	PrioNormal Priority = 0
	// PrioLate runs after all same-cycle PrioNormal events. Channel
	// arbiters use it so that every transmit request registered during a
	// cycle participates in that cycle's contention slot.
	PrioLate Priority = 1
)

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now Time
	q   eventQueue
	seq uint64
	// limit is the inclusive ceiling for the Sleep fast path: a process
	// may only self-advance the clock to times t <= limit, the horizon of
	// the innermost Run/RunUntil (matching runEvents' pop condition).
	limit   Time
	rng     *Rand
	handoff chan struct{}
	procs   map[*Proc]struct{}
	tasks   map[*Task]struct{}
	// cont is the trampoline slot for the SleepThen fast path: a
	// continuation that must run immediately after the current event, at
	// constant stack depth. runEvents drains it after every callback event.
	cont func()
	// ahead counts the members of the current run still to come (see
	// RunAhead). While it is nonzero the Sleep and SleepThen fast paths
	// stay closed, because those members stand where queued events would.
	ahead   int
	pv      any
	pstack  []byte
	stopped bool
	// Recycled-step pool counters, reported by workload layers through
	// StepPoolHit/StepPoolMiss.
	stepPoolHits   uint64
	stepPoolMisses uint64
}

// NewEngine returns an engine whose random stream is derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:     NewRand(seed),
		limit:   maxTime,
		handoff: make(chan struct{}),
		procs:   make(map[*Proc]struct{}),
		tasks:   make(map[*Task]struct{}),
	}
}

// SchedStats are the engine's scheduling-internals counters: how events were
// stored (timing wheel vs heap fallback) and how the workload layers'
// recycled continuation steps were obtained (pool reuse vs fresh
// allocation). They describe simulator mechanics, not simulated behavior —
// two execution modes of the same workload produce identical simulated
// results but different SchedStats — and exist so sweeps are diagnosable
// without a profiler (wisync-bench -v).
type SchedStats struct {
	// WheelEvents counts events stored in the timing wheel (scheduled
	// within wheelSpan cycles of the clock).
	WheelEvents uint64
	// HeapEvents counts far-future events that fell back to the 4-ary heap.
	HeapEvents uint64
	// StepPoolHits counts recycled-step reuses reported by workload layers
	// via StepPoolHit; StepPoolMisses counts the fresh allocations.
	StepPoolHits   uint64
	StepPoolMisses uint64
}

// Add accumulates other into s, for aggregating counters across sweep
// points.
func (s *SchedStats) Add(other SchedStats) {
	s.WheelEvents += other.WheelEvents
	s.HeapEvents += other.HeapEvents
	s.StepPoolHits += other.StepPoolHits
	s.StepPoolMisses += other.StepPoolMisses
}

// SchedStats returns the engine's scheduling counters.
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{
		WheelEvents:    e.q.wheelHits,
		HeapEvents:     e.q.heapFallbacks,
		StepPoolHits:   e.stepPoolHits,
		StepPoolMisses: e.stepPoolMisses,
	}
}

// StepPoolHit records one recycled-step reuse. Workload layers that keep
// per-task step structs (kernels, apps, core's recycled operations) report
// through these so -v sweeps can confirm the steady state allocates
// nothing.
func (e *Engine) StepPoolHit() { e.stepPoolHits++ }

// StepPoolMiss records one fresh step allocation.
func (e *Engine) StepPoolMiss() { e.stepPoolMisses++ }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Pending returns the number of scheduled events, for instrumentation.
func (e *Engine) Pending() int { return e.q.len() }

// RunAhead declares that k members of the current run are still to come.
// A run is one callback event that executes several members in order at
// its cycle, each member standing where an event of its own would have
// been queued (see Continuations in the package comment). The run calls
// RunAhead(k) before each member, counting down to 0 before the last one,
// so a member's Sleep or SleepThen takes the fast path exactly when it
// would have with the later members still queued: never before the last.
func (e *Engine) RunAhead(k int) { e.ahead = k }

// Schedule runs fn after d cycles at normal priority.
func (e *Engine) Schedule(d Time, fn func()) { e.ScheduleAt(e.now+d, PrioNormal, fn) }

// ScheduleAt runs fn at absolute time t with the given priority. Scheduling
// in the past is an error and panics: it would silently reorder causality.
func (e *Engine) ScheduleAt(t Time, prio Priority, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.seq++
	key := e.seq
	if prio == PrioLate {
		key |= prioBit
	}
	e.q.push(event{t: t, key: key, fn: fn}, e.now)
}

// scheduleProc enqueues a dispatch of p after d cycles. Unlike Schedule it
// captures no closure: the event record carries the process pointer, so the
// Sleep/Wake hot path is allocation-free.
func (e *Engine) scheduleProc(d Time, p *Proc) {
	t := e.now + d
	if t < e.now {
		panic(fmt.Sprintf("sim: wake of %s after %d cycles overflows the clock", p.name, d))
	}
	e.seq++
	e.q.push(event{t: t, key: e.seq, p: p}, e.now)
}

// DeadlockError reports that the event queue drained while processes were
// still parked, i.e. the simulated system deadlocked.
type DeadlockError struct {
	// Parked lists "name: reason" for every stuck process.
	Parked []string
	// Now is the simulated time at which the queue drained.
	Now Time
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d, %d process(es) parked: %v", d.Now, len(d.Parked), d.Parked)
}

// Run executes events until none remain. It returns a *DeadlockError if
// processes are still alive afterwards, and propagates any panic raised
// inside a process.
func (e *Engine) Run() error {
	e.limit = maxTime
	for e.runEvents(nil) == tokenPassed {
		<-e.handoff
		if e.pv != nil {
			e.rethrow()
		}
	}
	if e.pv != nil {
		e.rethrow()
	}
	return e.checkDeadlock()
}

// RunBounded executes all events with timestamp <= t but, unlike RunUntil,
// leaves the clock at the last executed event. Guarded runs (core's
// budget/watchdog loop) chunk the simulation with it so that a run which
// completes mid-chunk finishes at exactly the same cycle an unchunked Run
// would have — event order and final time are bit-identical by
// construction.
func (e *Engine) RunBounded(t Time) error {
	e.limit = t
	for e.runEvents(nil) == tokenPassed {
		<-e.handoff
		if e.pv != nil {
			e.limit = maxTime
			e.rethrow()
		}
	}
	e.limit = maxTime
	return nil
}

// RunUntil executes all events with timestamp <= t, then advances the clock
// to t. Processes still running are left parked; call Shutdown to reclaim
// their goroutines.
func (e *Engine) RunUntil(t Time) error {
	e.limit = t
	for e.runEvents(nil) == tokenPassed {
		<-e.handoff
		if e.pv != nil {
			e.limit = maxTime
			e.rethrow()
		}
	}
	e.limit = maxTime
	if e.now < t {
		e.now = t
	}
	return nil
}

// tokenState reports where the control token went after a runEvents call.
type tokenState uint8

const (
	// tokenDone: the caller keeps the token — the queue is drained, the
	// next event lies past the run horizon, or a process panic is pending
	// and must travel to the engine for rethrow.
	tokenDone tokenState = iota
	// tokenPassed: the token was handed to another process over its resume
	// channel; the caller must block until woken.
	tokenPassed
	// tokenSelf: the next event was the calling process's own wake-up; the
	// caller keeps the token and simply continues running.
	tokenSelf
)

// runEvents is the scheduler loop. The caller must hold the control token:
// exactly one goroutine — the engine's, or that of a process that is about
// to block — executes engine code at any instant, so no locking is needed
// anywhere in the simulator.
//
// Callback events are run inline on the caller's goroutine. When a process
// must run, the token is handed directly over its resume channel: direct
// proc-to-proc baton passing makes a context switch one channel rendezvous
// instead of two, because the engine goroutine stays parked while processes
// pass control among themselves. self is the calling process (nil for the
// engine loop); popping self's own wake-up returns tokenSelf instead of
// deadlocking on a send-to-self, and costs no channel operation at all.
func (e *Engine) runEvents(self *Proc) tokenState {
	for {
		if e.pv != nil {
			return tokenDone
		}
		head := e.q.first()
		if head == nil || head.t > e.limit {
			return tokenDone
		}
		ev := e.q.pop()
		e.now = ev.t
		if ev.p == nil {
			ev.fn()
			// Trampoline: drain continuations parked by the SleepThen
			// fast path. Each runs with the stack already unwound to
			// here, so continuation-form loops never recurse.
			for e.cont != nil {
				fn := e.cont
				e.cont = nil
				fn()
			}
			continue
		}
		p := ev.p
		if p.done || p.killed {
			continue
		}
		if !p.parked {
			panic("sim: dispatch of a process that is not parked (double wake?)")
		}
		p.parked = false
		p.wakeQueued = false
		if p == self {
			return tokenSelf
		}
		p.resume <- struct{}{}
		return tokenPassed
	}
}

func (e *Engine) rethrow() {
	pv, st := e.pv, e.pstack
	e.pv, e.pstack = nil, nil
	panic(fmt.Sprintf("sim: process panic: %v\n%s", pv, st))
}

func (e *Engine) checkDeadlock() error {
	if len(e.procs) == 0 && len(e.tasks) == 0 {
		return nil
	}
	return &DeadlockError{Parked: e.Breadcrumbs(), Now: e.now}
}

// CheckDeadlock reports a *DeadlockError if any process or task is still
// alive, and nil otherwise. Run calls it automatically when the queue
// drains; watchdog/budget guards call it explicitly after RunUntil to tell
// a genuine deadlock (queue empty, threads parked) from a livelock or
// budget overrun (events still flowing).
func (e *Engine) CheckDeadlock() error { return e.checkDeadlock() }

// Breadcrumbs returns one "name: reason" line per live process or task, in
// sorted order — the last-operation trail used in deadlock, livelock, and
// budget diagnostics. It must be called before Shutdown, which clears the
// live sets.
func (e *Engine) Breadcrumbs() []string {
	var parked []string
	for p := range e.procs {
		parked = append(parked, p.name+": "+p.reason)
	}
	for t := range e.tasks {
		parked = append(parked, t.name+": "+t.reasonLine())
	}
	sort.Strings(parked)
	return parked
}

// Shutdown terminates every live process goroutine (running their defers)
// and marks the engine stopped. It must be called after RunUntil when
// processes may still be alive, or the goroutines leak.
func (e *Engine) Shutdown() {
	for p := range e.procs {
		if p.done {
			continue
		}
		p.killed = true
		p.resume <- struct{}{}
		<-e.handoff
	}
	e.procs = make(map[*Proc]struct{})
	e.tasks = make(map[*Task]struct{})
	e.pv, e.pstack = nil, nil
	e.stopped = true
}

// Stopped reports whether Shutdown has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Live returns the number of processes and tasks that have been started
// and have not yet finished.
func (e *Engine) Live() int { return len(e.procs) + len(e.tasks) }
