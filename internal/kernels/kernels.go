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
	"wisync/internal/sim"
	"wisync/internal/syncprims"
	"wisync/internal/wireless"
)

// result assembles a Result from a finished machine, capturing the
// machine-level protocol counters alongside the headline timing.
func result(m *core.Machine, iters int) Result {
	r := Result{
		Cfg:             m.Cfg,
		Cycles:          m.Now(),
		Iterations:      iters,
		DataChannelUtil: m.DataChannelUtilization(),
		Mem:             m.Mem.Stats,
	}
	if m.Net != nil {
		r.Net = m.Net.Stats
		r.MAC = m.Net.MACCounters()
		r.Energy = m.Net.Energy
	}
	r.Faults = m.Faults()
	return r
}

// Result reports one kernel execution.
type Result struct {
	Cfg        config.Config
	Cycles     sim.Time
	Iterations int
	// DataChannelUtil is the wireless Data channel utilization (0 for
	// wired configurations).
	DataChannelUtil float64
	// Mem and Net expose the machine's protocol counters. The golden-
	// conformance suite pins them exactly, so any change to transaction
	// ordering — not just to end-to-end cycle counts — is detected.
	// Net is zero on wired configurations.
	Mem mem.Stats
	Net wireless.Stats
	// MAC holds the Data channel's per-protocol arbitration counters
	// (grants, collisions, token waits, mode switches). It lives outside
	// Net so the golden rendering of wireless.Stats is independent of the
	// MAC catalog.
	MAC wireless.MACStats
	// Energy is the Data channel's transceiver energy ledger and
	// channel-error delivery counters (zero on wired configurations;
	// reliability counters zero under the default ideal channel).
	Energy wireless.EnergyStats
	// Faults lists the workload threads halted by a fail-stopped
	// transceiver (nil without a fault plan): the kernel completed in a
	// degraded configuration rather than livelocking.
	Faults []core.Fault
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
	r := result(m, iters)
	m.Release()
	return r
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
