// Package sim implements a deterministic, single-threaded discrete-event
// simulation engine driven by completion callbacks.
//
// # Execution model
//
// The engine advances a cycle-resolution clock and executes events in
// (time, priority, sequence) order, so identical inputs always produce
// identical simulations. Events live in a two-level queue (see "Timing
// wheel" below); scheduling one is an append into a reused slice, never a
// per-event heap allocation. Every event is a plain callback
// (Schedule/ScheduleAt) that the engine invokes inline from its run loop:
// one event costs a queue push, a pop, and a function call. The engine
// starts no goroutines; everything runs on the goroutine that calls Run.
//
// # Continuations
//
// A model whose logic spans several suspensions — a directory transaction
// sleeps for the request flight, queueing, hold and reply — is written as
// an engine-scheduled continuation chain: each suspension schedules the
// next step as a callback event. A chain that must wait hands its next
// step to whatever it waits on, which schedules the step when the wait
// ends: the directory's per-line FIFO lock (package mem), WaitQueue.WaitFn,
// and the channel's wireless.Network.SendAsync. Every suspension consumes
// exactly one event sequence number, at the point it suspends.
//
// Two calls keep that rule while queueing less. ScheduleNow is Schedule(0)
// with SleepThen's fast path (see Tasks): when its event would be the next
// one dispatched, it runs from the trampoline slot. Reserve takes the
// sequence number an event scheduled now would get, and ScheduleReserved
// queues that event later, in the place it would have had, or never, if
// the model finds it has no effect. The directory's lock uses both: a
// request to a held line joins the line's waiters at issue instead of
// queueing an arrival, and a release hands the line on through the
// trampoline.
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
// and SleepThen (see Tasks) takes its fast path only when that count is 0.
// The Broadcast Memory's spin herd (package bmem) is the user: one commit
// to a spun-on word moves every spinner through two runs, the replica load
// RT after the commit and its delivery RT later, instead of two events per
// spinner.
//
// # Tasks
//
// Workload threads are Tasks (task.go). A task is spawned with GoTask, or
// with StartTask on a Task its caller keeps; either consumes one sequence
// number for its start event. It advances exclusively through completion
// callbacks (SleepThen, the async hardware-model operations,
// WaitQueue.WaitFn), and retires with Finish. A task that has not finished
// when the queue drains is reported as deadlocked.
//
// SleepThen has a zero-handoff fast path: when the continuation would be
// the very next event popped (nothing precedes it in the (time, priority,
// sequence) order and the wake time is within the run horizon), it skips
// the event queue entirely — the clock advances inline, the sequence
// number is still consumed, and the continuation lands in the engine's
// trampoline slot (cont), which the scheduler loop drains after each
// callback event. The fast path only short-circuits the dispatch the queue
// would have performed next, so results are bit-identical to always
// queueing. The trampoline keeps arbitrarily long uncontended chains at
// constant stack depth: each continuation returns to the scheduler before
// the next one runs, so continuation-form loops never recurse.
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
// horizon) falls back to the heap, as does an event under a reserved key
// older than the newest, and first/pop merge the two levels by
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
// NewEngine, or Init on a zero or finished engine.
type Engine struct {
	now Time
	q   eventQueue
	seq uint64
	// limit is the inclusive ceiling for the SleepThen fast path: a
	// continuation may only self-advance the clock to times t <= limit, the
	// horizon of the innermost Run/RunUntil (matching runEvents' pop
	// condition).
	limit Time
	rng   Rand
	tasks map[*Task]struct{}
	// cont is the trampoline slot for the SleepThen and ScheduleNow fast
	// paths: a continuation that must run immediately after the current
	// event, at constant stack depth. runEvents drains it after every
	// callback event.
	cont func()
	// ahead counts the members of the current run still to come (see
	// RunAhead). While it is nonzero the SleepThen and ScheduleNow fast
	// paths stay closed, because those members stand where queued events
	// would.
	ahead   int
	stopped bool
	// Recycled-step pool counters, reported by workload layers through
	// StepPoolHit/StepPoolMiss.
	stepPoolHits   uint64
	stepPoolMisses uint64
}

// NewEngine returns an engine whose random stream is derived from seed.
func NewEngine(seed uint64) *Engine {
	e := new(Engine)
	e.Init(seed)
	return e
}

// Init makes e the engine NewEngine(seed) returns. On an engine that ran
// before, it keeps the queue's arrays and the task set's map, emptied:
// events and tasks still live when that run stopped are dropped.
func (e *Engine) Init(seed uint64) {
	tasks := e.tasks
	if tasks == nil {
		tasks = make(map[*Task]struct{})
	}
	clear(tasks)
	e.q.reset()
	*e = Engine{q: e.q, rng: *NewRand(seed), limit: maxTime, tasks: tasks}
}

// SchedStats are the engine's scheduling-internals counters: how events were
// stored (timing wheel vs heap fallback) and how the workload layers'
// recycled continuation steps were obtained (pool reuse vs fresh
// allocation). They describe simulator mechanics, not simulated behavior,
// and exist so sweeps are diagnosable without a profiler (wisync-bench -v).
type SchedStats struct {
	// WheelEvents counts events stored in the timing wheel (scheduled
	// within wheelSpan cycles of the clock).
	WheelEvents uint64
	// HeapEvents counts the events stored in the 4-ary heap: far-future
	// events, and events under a reserved key older than the newest.
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

// FreeList is a free list of recycled records of one kind. It keeps every
// record made for it, so that a run cut at its horizon with records in use
// loses none of them (see Reclaimed). The zero value is empty.
type FreeList[T any] struct {
	free, made []*T
}

// Get returns a free record, or nil when the caller must make one and hand
// it to Made.
func (l *FreeList[T]) Get() *T {
	k := len(l.free)
	if k == 0 {
		return nil
	}
	s := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return s
}

// Made records s, a record the caller made because Get returned nil, and
// returns it.
func (l *FreeList[T]) Made(s *T) *T {
	l.made = append(l.made, s)
	return s
}

// Put returns a record to the list.
func (l *FreeList[T]) Put(s *T) { l.free = append(l.free, s) }

// Reclaimed returns the list for a new run: every record made for it free
// again. Records the old run still held, which a run cut at its horizon
// leaves behind, are passed to clear first, so that none keeps a
// continuation of that run; clear must leave a free record as it is.
func (l *FreeList[T]) Reclaimed(clear func(*T)) FreeList[T] {
	free := l.free[:0]
	for _, s := range l.made {
		clear(s)
		free = append(free, s)
	}
	return FreeList[T]{free: free, made: l.made}
}

// StepPool is a FreeList of recycled steps that reports its takes through
// StepPoolHit and StepPoolMiss. Its steps outlive the engine run they
// served (see Recycled), yet a take counts as it would on a new, empty
// list: a miss exactly when it brings the steps in use to a new high for
// the run, a hit otherwise. The zero value is empty.
type StepPool[T any] struct {
	list       FreeList[T]
	live, high int
}

// Take returns a free step, or nil when the caller must make one and hand
// it to Made; either way it counts the take on e.
func (p *StepPool[T]) Take(e *Engine) *T {
	p.live++
	if p.live > p.high {
		p.high = p.live
		e.StepPoolMiss()
	} else {
		e.StepPoolHit()
	}
	return p.list.Get()
}

// Made records s, a step the caller made because Take returned nil, and
// returns it.
func (p *StepPool[T]) Made(s *T) *T { return p.list.Made(s) }

// Put returns a step Take handed out, or one its caller made.
func (p *StepPool[T]) Put(s *T) {
	p.live--
	p.list.Put(s)
}

// Recycled returns the pool for a new run: every step made for it free
// again, none in use, as FreeList.Reclaimed returns it.
func (p *StepPool[T]) Recycled(clear func(*T)) StepPool[T] {
	return StepPool[T]{list: p.list.Reclaimed(clear)}
}

// Zeroed returns s with length n and every element zero, in s's array
// when it is large enough: how a model's init keeps an array from a run
// before.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return &e.rng }

// Pending returns the number of scheduled events, for instrumentation.
func (e *Engine) Pending() int { return e.q.len() }

// RunAhead declares that k members of the current run are still to come.
// A run is one callback event that executes several members in order at
// its cycle, each member standing where an event of its own would have
// been queued (see Continuations in the package comment). The run calls
// RunAhead(k) before each member, counting down to 0 before the last one,
// so a member's SleepThen takes the fast path exactly when it
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

// ScheduleNow runs fn at the current cycle at normal priority, consuming
// one sequence number, exactly as Schedule(0, fn) would. When that event
// would be dispatched next — no PrioNormal event is queued at this cycle,
// no member of a run remains (RunAhead) and the trampoline slot is free —
// fn runs from the trampoline slot instead of the queue, right after the
// current callback returns, as SleepThen's fast path does. Like SleepThen
// it must be called from event context, and nothing ordered before fn may
// be queued after it.
func (e *Engine) ScheduleNow(fn func()) {
	if e.ahead == 0 && e.cont == nil {
		if head := e.q.first(); head == nil || head.t > e.now || head.key >= prioBit {
			e.seq++
			e.cont = fn
			return
		}
	}
	e.ScheduleAt(e.now, PrioNormal, fn)
}

// Reserve consumes one sequence number and returns it as the key of a
// normal-priority event: the key Schedule would give an event now. A model
// that defers an event it may never need (a request that may only join a
// queue) reserves its place in the event order and schedules it later,
// if at all, with ScheduleReserved.
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq
}

// ScheduleReserved runs fn at time t under key, a sequence number Reserve
// returned. The event dispatches where an event scheduled at the
// reservation would have. A timing-wheel bucket keeps its events in the
// order they were pushed, which must be key order, so an event under an
// older key than the newest goes to the heap; the newest key goes where
// Schedule would put it.
func (e *Engine) ScheduleReserved(t Time, key uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	ev := event{t: t, key: key, fn: fn}
	if key == e.seq {
		e.q.push(ev, e.now)
		return
	}
	e.q.pushHeap(ev)
}

// DeadlockError reports that the event queue drained while tasks were
// still unfinished, i.e. the simulated system deadlocked.
type DeadlockError struct {
	// Parked lists "name: reason" for every stuck task.
	Parked []string
	// Now is the simulated time at which the queue drained.
	Now Time
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d, %d process(es) parked: %v", d.Now, len(d.Parked), d.Parked)
}

// Run executes events until none remain. It returns a *DeadlockError if
// tasks are still unfinished afterwards.
func (e *Engine) Run() error {
	e.limit = maxTime
	e.runEvents()
	if len(e.tasks) == 0 {
		return nil
	}
	return &DeadlockError{Parked: e.Breadcrumbs(), Now: e.now}
}

// RunBounded executes all events with timestamp <= t but, unlike RunUntil,
// leaves the clock at the last executed event. Guarded runs (core's
// budget/watchdog loop) chunk the simulation with it so that a run which
// completes mid-chunk finishes at exactly the same cycle an unchunked Run
// would have — event order and final time are bit-identical by
// construction.
func (e *Engine) RunBounded(t Time) {
	e.limit = t
	e.runEvents()
	e.limit = maxTime
}

// RunUntil executes all events with timestamp <= t, then advances the clock
// to t. Tasks still unfinished are left suspended; call Shutdown to retire
// them.
func (e *Engine) RunUntil(t Time) {
	e.RunBounded(t)
	if e.now < t {
		e.now = t
	}
}

// runEvents is the scheduler loop: it pops events up to the run horizon
// and runs each callback inline, then drains the trampoline slot.
func (e *Engine) runEvents() {
	for {
		head := e.q.first()
		if head == nil || head.t > e.limit {
			return
		}
		ev := e.q.pop()
		e.now = ev.t
		ev.fn()
		// Trampoline: drain continuations parked by the SleepThen fast
		// path. Each runs with the stack already unwound to here, so
		// continuation-form loops never recurse.
		for e.cont != nil {
			fn := e.cont
			e.cont = nil
			fn()
		}
	}
}

// Breadcrumbs returns one "name: reason" line per unfinished task, in
// sorted order — the last-operation trail used in deadlock, livelock, and
// budget diagnostics. It must be called before Shutdown, which clears the
// live sets.
func (e *Engine) Breadcrumbs() []string {
	var parked []string
	for t := range e.tasks {
		parked = append(parked, t.name+": "+t.reasonLine())
	}
	sort.Strings(parked)
	return parked
}

// Shutdown retires every unfinished task and marks the engine stopped. Call
// it after RunUntil when tasks may still be suspended; a stopped engine
// accepts no new tasks.
func (e *Engine) Shutdown() {
	clear(e.tasks)
	e.stopped = true
}

// Live returns the number of tasks that have been started and have not yet
// finished.
func (e *Engine) Live() int { return len(e.tasks) }
