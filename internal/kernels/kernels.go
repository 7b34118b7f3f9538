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
// charge, then `then` — as a recycled step struct: each task allocates one
// ranger and reuses it for every range sweep, so the steady state captures
// nothing per call (a closure form allocates a step closure, an onRead
// closure, and their shared capture record per range). A ranger runs one
// sweep at a time; the completion continuation may start the next sweep on
// the same ranger.
type readRanger struct {
	t      *core.Task
	a      uint64 // next line address
	last   uint64 // last line address
	instrs int    // instruction charge once the sweep completes
	then   func()
	used   bool // a sweep already ran; later runs are pool reuses

	onReadFn func(uint64)
}

func newReadRanger(t *core.Task) *readRanger {
	t.M.Eng.StepPoolMiss()
	r := &readRanger{t: t}
	r.onReadFn = r.onRead
	return r
}

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

// TightLoop runs the paper's TightLoop kernel (Section 6): every thread
// sums a 50-element private array into a local variable, then synchronizes
// at a global barrier, repeated iters times. It reports cycles/iteration —
// the Figure 7 metric.
func TightLoop(cfg config.Config, iters int) Result {
	const elems = 50
	m := core.NewMachine(cfg)
	f := syncprims.NewFactory(m)
	tb := f.NewTaskBarrier(nil)
	// Per-thread private arrays on distinct lines.
	arrays := make([]uint64, cfg.Cores)
	for i := range arrays {
		arrays[i] = m.AllocArray(elems)
	}
	m.SpawnAllTasks(func(t *core.Task) {
		rr := newReadRanger(t)
		it := 0
		var iter, afterRead func()
		iter = func() {
			if it == iters {
				t.Finish()
				return
			}
			it++
			rr.run(arrays[t.Core], 0, elems, 2, afterRead)
		}
		afterRead = func() { tb.WaitTask(t, iter) }
		iter()
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	return Result{Outcome: m.Finish(), Iterations: iters}
}

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
