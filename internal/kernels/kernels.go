// Package kernels implements the synchronization-intensive kernels of the
// paper's evaluation (Table 3): the TightLoop barrier microbenchmark,
// Livermore loops 2, 3 and 6 [30] parallelized with barrier phases per
// Sampson et al. [37], and the FIFO/LIFO/ADD lock-free CAS kernels.
//
// The kernels are timing-directed with a functional mirror: array values
// live in ordinary Go slices (validated against sequential references in
// tests), while every array traversal charges real cache-line accesses
// through the simulated MOESI hierarchy and every synchronization operation
// runs on the real primitives of package syncprims. One simulated thread
// runs per core.
package kernels

import (
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/mem"
	"wisync/internal/syncprims"
)

// Result reports one kernel execution: the finished machine's Outcome and
// the iterations it ran.
type Result struct {
	core.Outcome
	Iterations int
}

// CyclesPerIteration returns the average iteration time.
func (r Result) CyclesPerIteration() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Iterations)
}

// wordsPerLine is how many 64-bit elements share a cache line.
const wordsPerLine = mem.LineBytes / 8

// readRanger charges cache accesses for a sequential sweep over an array
// range — one read per line, in address order, then the instruction
// charge, then `then` — as a recycled step struct: each kernel step holds
// one ranger and reuses it for every range sweep, so the steady state
// captures nothing per call (a closure form allocates a step closure, an
// onRead closure, and their shared capture record per range). A ranger
// runs one sweep at a time; the completion continuation may start the
// next sweep on the same ranger.
type readRanger struct {
	t      *core.Task
	a      uint64 // next line address
	last   uint64 // last line address
	instrs int    // instruction charge once the sweep completes
	then   func()
	used   bool // a sweep already ran; later runs are pool reuses

	onReadFn func(uint64)
}

// start readies the ranger for t's point. It counts the ranger as a fresh
// step, as a new task makes one.
func (r *readRanger) start(t *core.Task) {
	t.M.Eng.StepPoolMiss()
	if r.onReadFn == nil {
		r.onReadFn = r.onRead
	}
	r.t, r.used = t, false
}

// release drops what the ranger holds of its point.
func (r *readRanger) release() { r.t, r.then = nil, nil }

// run charges cache accesses for a sequential sweep over elements [lo, hi)
// of the array starting at base, plus instrsPerElem instructions per
// element, then runs then.
func (r *readRanger) run(base uint64, lo, hi, instrsPerElem int, then func()) {
	if hi <= lo {
		then()
		return
	}
	if r.used {
		r.t.M.Eng.StepPoolHit()
	}
	r.used = true
	r.a = (base + uint64(lo)*8) &^ (mem.LineBytes - 1)
	r.last = base + uint64(hi-1)*8
	r.instrs = (hi - lo) * instrsPerElem
	r.then = then
	r.step()
}

func (r *readRanger) onRead(uint64) { r.step() }

func (r *readRanger) step() {
	if r.a > r.last {
		then := r.then
		r.then = nil
		r.t.Instr(r.instrs)
		then()
		return
	}
	addr := r.a
	r.a += mem.LineBytes
	r.t.Read(addr, r.onReadFn)
}

// tightLoopElems is the length of each TightLoop thread's private array.
const tightLoopElems = 50

// tightLoop is TightLoop's shared state, which the machine keeps across
// points: the barrier, the threads' private arrays, and the task body as
// a cached method value.
type tightLoop struct {
	tb     syncprims.TaskBarrier
	arrays []uint64 // each core's private array
	iters  int
	bodyFn func(*core.Task)
}

func (k *tightLoop) Release() { k.tb = nil }

// tightStep is one thread's TightLoop iteration loop, kept on its task.
type tightStep struct {
	k  *tightLoop
	t  *core.Task
	rr readRanger
	it int

	iterFn, afterReadFn func()
}

func (s *tightStep) Release() {
	s.k, s.t = nil, nil
	s.rr.release()
}

// TightLoop runs the paper's TightLoop kernel (Section 6): every thread
// sums a 50-element private array into a local variable, then synchronizes
// at a global barrier, repeated iters times. It reports cycles/iteration —
// the Figure 7 metric.
func TightLoop(cfg config.Config, iters int) Result {
	m := core.NewMachine(cfg)
	k := core.MachineState[tightLoop](m)
	if k.bodyFn == nil {
		k.bodyFn = k.body
	}
	k.tb = syncprims.NewFactory(m).NewTaskBarrier(nil)
	k.iters = iters
	// Per-thread private arrays on distinct lines.
	k.arrays = k.arrays[:0]
	for range cfg.Cores {
		k.arrays = append(k.arrays, m.AllocArray(tightLoopElems))
	}
	m.SpawnAllTasks(k.bodyFn)
	if err := m.Run(); err != nil {
		panic(err)
	}
	return Result{Outcome: m.Finish(), Iterations: iters}
}

func (k *tightLoop) body(t *core.Task) {
	s := core.TaskState[tightStep](t)
	if s.iterFn == nil {
		s.iterFn, s.afterReadFn = s.iter, s.afterRead
	}
	s.rr.start(t)
	s.k, s.t, s.it = k, t, 0
	s.iter()
}

func (s *tightStep) iter() {
	if s.it == s.k.iters {
		s.t.Finish()
		return
	}
	s.it++
	s.rr.run(s.k.arrays[s.t.Core], 0, tightLoopElems, 2, s.afterReadFn)
}

func (s *tightStep) afterRead() { s.k.tb.WaitTask(s.t, s.iterFn) }

// chunk returns the [lo, hi) slice of an n-element range assigned to
// worker w of p workers.
func chunk(n, w, p int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}
