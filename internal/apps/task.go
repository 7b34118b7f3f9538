package apps

// This file is the profile interpreter: each thread runs the loop nest
//
//	compute(rand(ComputeMean/4 + 1))              // desynchronized start
//	for it in 0..Iterations:
//	    for b in 0..max(BarriersPerIter, 1):
//	        compute(jitter(ComputeMean/nb, Jitter))
//	        SharedReadsPerIter/nb reads of random shared lines
//	        barrier wait (if the profile has barriers)
//	    for l in 0..LockOpsPerIter:
//	        acquire a random lock; compute(HoldCycles); write its data
//	        line; release; compute(jitter(2*HoldCycles + 20, Jitter))
//	    for r in 0..ReductionsPerIter:
//	        reducer fetch&add 1; compute(20 + rand(40))
//
// as a core.Task state machine. Each task keeps one appTask across points
// — the loop counters are fields, the continuations are method values
// cached once — so interpreting a profile allocates nothing per operation
// beyond what the primitives themselves need. The per-thread random stream
// is consumed in exactly this order (pinned by the reference suite in this
// package and the apps golden table in package harness).

import (
	"wisync/internal/core"
	"wisync/internal/sim"
	"wisync/internal/syncprims"
)

// appTask interprets one thread's share of a profile. The counters follow
// the loop nest above: it (iterations completed), b
// (barrier phases completed this iteration), r (reads or reductions
// completed this phase), l (lock operations completed this iteration).
// The task keeps it from one point to the next.
type appTask struct {
	t   *core.Task
	p   *Profile
	rng sim.Rand

	barrier  syncprims.TaskBarrier // nil when the profile has no barriers
	locks    []syncprims.TaskLock
	red      *syncprims.Reducer // nil when the profile has no reductions
	shared   uint64
	lockData []uint64

	nb       int // barrier phases per iteration (>= 1)
	compute  int // mean compute per barrier phase
	reads    int // shared reads per barrier phase
	numLocks int // lock-choice range (>= 1)

	it, b, r, l, li int

	afterBarrierFn, afterAcquireFn, afterWriteFn,
	afterReleaseFn func()
	onReadFn, onAddFn func(uint64)
}

// init readies a for t's share of run r, with the thread's random stream
// seeded by seed. It counts a as a fresh step, as a new task makes one.
func (a *appTask) init(t *core.Task, r *appRun, seed uint64) {
	t.M.Eng.StepPoolMiss()
	if a.onAddFn == nil {
		a.afterBarrierFn = a.afterBarrier
		a.afterAcquireFn = a.afterAcquire
		a.afterWriteFn = a.afterWrite
		a.afterReleaseFn = a.afterRelease
		a.onReadFn = a.onRead
		a.onAddFn = a.onAdd
	}
	p := &r.p
	a.t, a.p = t, p
	a.rng = *sim.NewRand(seed)
	a.barrier, a.locks, a.red = r.barrier, r.locks, r.red
	a.shared, a.lockData = r.shared, r.lockData
	a.nb = max(p.BarriersPerIter, 1)
	a.numLocks = max(p.NumLocks, 1)
	a.compute = p.ComputeMean / a.nb
	a.reads = p.SharedReadsPerIter / a.nb
	a.it, a.b, a.r, a.l, a.li = 0, 0, 0, 0, 0
}

func (a *appTask) Release() {
	a.t, a.p = nil, nil
	a.barrier, a.locks, a.red, a.lockData = nil, nil, nil, nil
}

// start is the task body entry: the desynchronized start, then the
// iteration loop.
func (a *appTask) start() {
	a.t.Compute(a.rng.Intn(a.p.ComputeMean/4 + 1))
	a.iter()
}

func (a *appTask) iter() {
	if a.it == a.p.Iterations {
		a.t.Finish()
		return
	}
	if a.it > 0 {
		// Pool-hit semantics match the hardware pools: the first
		// iteration runs on the fresh struct (the miss recorded in
		// init); every later one is a reuse.
		a.t.M.Eng.StepPoolHit()
	}
	a.b = 0
	a.phase()
}

// phase runs one barrier phase: jittered compute, the shared-footprint
// reads, then the barrier.
func (a *appTask) phase() {
	if a.b == a.nb {
		a.l = 0
		a.lockOps()
		return
	}
	a.t.Compute(int(a.rng.Jitter(float64(a.compute), a.p.Jitter, 1)))
	a.r = 0
	a.sharedReads()
}

func (a *appTask) sharedReads() {
	if a.r == a.reads {
		if a.barrier != nil {
			a.barrier.WaitTask(a.t, a.afterBarrierFn)
			return
		}
		a.afterBarrier()
		return
	}
	a.r++
	line := a.rng.Intn(a.p.SharedLines)
	a.t.Read(a.shared+uint64(line*64), a.onReadFn)
}

func (a *appTask) onRead(uint64) { a.sharedReads() }

func (a *appTask) afterBarrier() {
	a.b++
	a.phase()
}

// lockOps runs the critical-section loop: pick a lock, acquire, hold with
// one shared-line write, release, then the jittered inter-acquire gap.
func (a *appTask) lockOps() {
	if a.l == a.p.LockOpsPerIter {
		a.r = 0
		a.reductions()
		return
	}
	a.li = a.rng.Intn(a.numLocks)
	a.locks[a.li%len(a.locks)].AcquireTask(a.t, a.afterAcquireFn)
}

func (a *appTask) afterAcquire() {
	a.t.Compute(a.p.HoldCycles)
	a.t.Write(a.lockData[a.li%len(a.lockData)], uint64(a.it), a.afterWriteFn)
}

func (a *appTask) afterWrite() {
	a.locks[a.li%len(a.locks)].ReleaseTask(a.t, a.afterReleaseFn)
}

func (a *appTask) afterRelease() {
	a.t.Compute(int(a.rng.Jitter(float64(a.p.HoldCycles*2+20), a.p.Jitter, 1)))
	a.l++
	a.lockOps()
}

// reductions runs the fetch&add updates to the global accumulator, then
// advances to the next iteration.
func (a *appTask) reductions() {
	if a.r == a.p.ReductionsPerIter {
		a.it++
		a.iter()
		return
	}
	a.red.AddTask(a.t, 1, a.onAddFn)
}

func (a *appTask) onAdd(uint64) {
	a.t.Compute(20 + a.rng.Intn(40))
	a.r++
	a.reductions()
}
