package core

import (
	"fmt"
	"math"

	"wisync/internal/sim"
)

// Task is one software thread pinned to a core, written in
// completion-callback style: each operation returns immediately and runs
// `then` at the completion cycle, so an entire workload of Tasks executes
// on the goroutine driving the engine.
//
// Computation is charged lazily: Compute and Instr accumulate cycles into
// pending that elapse only when the task next touches shared state
// (flush). An arbitrarily long compute phase thus collapses into a single
// SleepThen — one event, not one per Compute call — without changing
// observable timing, because the wait lands exactly where the next
// shared-state access serializes. That SleepThen takes sim's zero-handoff
// fast path whenever the continuation is the next event globally, so an
// uncontended compute/sync loop runs as plain function calls. Shared-state
// accesses must flush first (and do), since their outcome may depend on
// hardware state that other cores mutate while pending cycles elapse.
//
// Continuation discipline: each `then` must be the last simulation action
// of its caller (tail position), and a task must call Finish when its
// workload completes. Fault-raising instructions (BM protection or
// addressing violations) terminate the simulated program by panicking;
// there are no Try variants (software that handles faults calls the
// hardware model, whose error return reports the fault).
type Task struct {
	M    *Machine
	Core int
	PID  uint16

	st      sim.Task
	pending sim.Time
	body    func(*Task)
	startFn func() // cached method value of start
	// Recycled continuation steps (steps.go), made on first use and reused
	// for every subsequent operation of their family. They stay with the
	// Task when its machine runs another point; used marks the families
	// the task has used since it was spawned (stepRMW, stepBM, stepHW).
	rmw  *rmwOp
	bmr  *bmRetryOp
	hw   *hwOp
	used uint8
	// kept is the workload state the task keeps across points (kept.go).
	kept []kept
}

// SpawnTask starts body as a thread pinned to the given core with the given
// PID. Tasks started before Run begin at cycle 0; the spawn consumes one
// event sequence number. A machine running another point spawns its
// earlier point's Tasks again, in order, each rebuilt whole but for its
// steps.
func (m *Machine) SpawnTask(name string, core int, pid uint16, body func(*Task)) *Task {
	if core < 0 || core >= m.Cfg.Cores {
		panic(fmt.Sprintf("core: spawn on core %d of %d", core, m.Cfg.Cores))
	}
	if m.spawned == len(m.tasks) {
		t := new(Task)
		t.startFn = t.start
		m.tasks = append(m.tasks, t)
	}
	t := m.tasks[m.spawned]
	m.spawned++
	*t = Task{M: m, Core: core, PID: pid, body: body, startFn: t.startFn, rmw: t.rmw, bmr: t.bmr, hw: t.hw, kept: t.kept}
	m.Eng.StartTask(&t.st, name, t.startFn)
	return t
}

func (t *Task) start() { t.body(t) }

// release drops what t holds of the point it ran, keeping its steps: its
// body, the continuations a run cut at its horizon leaves in the steps,
// and the workload state it took.
func (t *Task) release() {
	release(t.kept)
	if op := t.rmw; op != nil {
		op.then0, op.thenB, op.thenU = nil, nil, nil
	}
	if op := t.bmr; op != nil {
		op.thenU, op.thenB, op.thenF = nil, nil, nil
	}
	if op := t.hw; op != nil {
		op.then0, op.thenU = nil, nil
	}
	*t = Task{startFn: t.startFn, rmw: t.rmw, bmr: t.bmr, hw: t.hw, kept: t.kept}
}

// SpawnAllTasks starts one task per core (cores 0..n-1, PID 1), the common
// kernel pattern. body receives the task; task index == core index.
func (m *Machine) SpawnAllTasks(body func(*Task)) {
	for c := 0; c < m.Cfg.Cores; c++ {
		if c == len(m.names) {
			m.names = append(m.names, fmt.Sprintf("t%d", c))
		}
		m.SpawnTask(m.names[c], c, 1, body)
	}
}

// Finish retires the task; every task must call it when its workload is
// done, or Run reports a deadlock.
func (t *Task) Finish() { t.st.Finish() }

// Now returns the task's local time: engine time plus unflushed compute.
func (t *Task) Now() sim.Time { return t.M.Eng.Now() + t.pending }

// Compute charges n cycles of local computation.
func (t *Task) Compute(n int) {
	if n > 0 {
		t.pending += sim.Time(n)
	}
}

// Instr charges n dynamic instructions on the 2-issue core (Table 1):
// ceil(n/2) cycles.
func (t *Task) Instr(n int) {
	if n > 0 {
		t.pending += sim.Time((n + 1) / 2)
	}
}

// flush elapses pending compute, then runs then, consuming one sequence
// number when pending > 0 and none otherwise.
func (t *Task) flush(then func()) {
	if t.pending == 0 {
		then()
		return
	}
	d := t.pending
	t.pending = 0
	t.M.Eng.SleepThen(d, then)
}

// Sync flushes pending compute; then runs once Now() is architectural.
func (t *Task) Sync(then func()) { t.flush(then) }

// ---- Regular cached memory (all configurations) ----

// Read loads the 64-bit word at addr through the cache hierarchy.
//
// Read and RMW inline flush's pending-compute discipline instead of
// calling it: wrapping the issue in a flush closure costs an allocation
// even on the (dominant) pending==0 path, and measurably — Fig7 runs
// ~1.8x slower with the helper. The three copies must stay in lockstep;
// the golden matrices and the kernel and app reference files pin the
// contract.
func (t *Task) Read(addr uint64, then func(uint64)) {
	t.st.SetReasonArg("mem read", addr)
	if t.pending > 0 {
		op := t.hwStep()
		op.kind, op.addr64, op.thenU = hwMemRead, addr, then
		d := t.pending
		t.pending = 0
		t.M.Eng.SleepThen(d, op.issueFn)
		return
	}
	t.M.Mem.ReadAsync(t.Core, addr, then)
}

// Write stores val to addr through the cache hierarchy. Like the other
// RMW-family operations (CAS, FetchAdd, Swap) it runs on the task's
// recycled step struct instead of capturing val and then in per-call
// closures — see steps.go.
func (t *Task) Write(addr uint64, val uint64, then func()) {
	op := t.rmwStep()
	op.kind, op.val, op.then0 = rmwWrite, val, then
	op.start(addr)
}

// CAS is compare-and-swap on cached memory; then reports whether it
// swapped.
func (t *Task) CAS(addr, old, nv uint64, then func(bool)) {
	op := t.rmwStep()
	op.kind, op.old, op.val, op.thenB = rmwCAS, old, nv, then
	op.start(addr)
}

// FetchAdd atomically adds delta to the word at addr; then receives the
// old value.
func (t *Task) FetchAdd(addr, delta uint64, then func(uint64)) {
	op := t.rmwStep()
	op.kind, op.val, op.thenU = rmwFetchAdd, delta, then
	op.start(addr)
}

// Swap atomically exchanges the word at addr with val; then receives the
// old value.
func (t *Task) Swap(addr, val uint64, then func(uint64)) {
	op := t.rmwStep()
	op.kind, op.val, op.thenU = rmwSwap, val, then
	op.start(addr)
}

// SpinUntil spins on cached memory until cond holds (hardware-faithful:
// local spinning, re-fetch on invalidation); then receives the satisfying
// value.
func (t *Task) SpinUntil(addr uint64, cond sim.Cond, then func(uint64)) {
	t.st.SetReasonArg("spin", addr)
	op := t.hwStep()
	op.kind, op.addr64, op.cond, op.thenU = hwMemSpin, addr, cond, then
	op.start()
}

// ---- Broadcast Memory ISA (WiSync configurations) ----

func (t *Task) bm() {
	if t.M.BM == nil {
		panic("core: BM instruction on a configuration without Broadcast Memory")
	}
}

func (t *Task) must(err error) {
	if err != nil {
		// A protection or addressing fault kills the simulated program.
		panic(err)
	}
}

// txGuard retires the task when its transceiver has fail-stopped: the
// operation named op can never complete (every broadcast from this node
// fails), so instead of spinning forever the task records a fault,
// finishes, and reports true — the caller must return without issuing the
// operation. The check reads only injector state at the current cycle, so
// fault records are deterministic.
func (t *Task) txGuard(op string) bool {
	if t.M.Net != nil && t.M.Net.NodeFailStopped(t.Core) {
		t.M.recordFault(t.Core, t.PID, op)
		t.st.Finish()
		return true
	}
	return false
}

// BMLoad is a plain load from the local BM.
func (t *Task) BMLoad(addr uint32, then func(uint64)) {
	t.st.SetReasonArg("bm load", uint64(addr))
	t.bm()
	op := t.hwStep()
	op.kind, op.addr, op.thenU = hwBMLoad, addr, then
	op.start()
}

// BMStore broadcasts val to addr in every BM; then runs when the write
// completes. On a lossy channel a write whose retries ran out reached no
// replica and completes with WCB clear. On a fail-stopped transceiver the
// task halts with a fault record instead of issuing a send that cannot
// commit.
func (t *Task) BMStore(addr uint32, val uint64, then func()) {
	t.bmStore(hwBMStore, addr, val, then)
}

// BMStoreRetry is BMStore reissued until the write commits: software's
// check of WCB after each try, charged as a 2-instruction check-and-branch
// before the next one, as the BM retry protocols charge their AFB check.
// A store that others wait on (a lock release, a barrier's episode) must
// commit, or they wait forever. Each try passes BMStore's fail-stop guard.
func (t *Task) BMStoreRetry(addr uint32, val uint64, then func()) {
	t.bmStore(hwBMStoreRetry, addr, val, then)
}

func (t *Task) bmStore(kind hwKind, addr uint32, val uint64, then func()) {
	t.st.SetReasonArg("bm store", uint64(addr))
	t.bm()
	if t.txGuard("bm store") {
		return
	}
	op := t.hwStep()
	op.kind, op.addr, op.val, op.then0 = kind, addr, val, then
	op.start()
}

// BMBulkLoad loads four consecutive BM words (Bulk load instruction); then
// receives them.
func (t *Task) BMBulkLoad(addr uint32, then func([4]uint64)) {
	t.st.SetReasonArg("bm bulk load", uint64(addr))
	t.bm()
	t.flush(func() { t.must(t.M.BM.BulkLoadAsync(t.Core, t.PID, addr, then)) })
}

// BMBulkStore broadcasts four words in one 15-cycle message (Bulk store);
// then runs at the commit (WCB set).
func (t *Task) BMBulkStore(addr uint32, vals [4]uint64, then func()) {
	t.st.SetReasonArg("bm bulk store", uint64(addr))
	if t.txGuard("bm bulk store") {
		return
	}
	t.bm()
	t.flush(func() { t.must(t.M.BM.BulkStoreAsync(t.Core, t.PID, addr, vals, then)) })
}

// BMFetchAdd executes fetch&add with the Figure 4(a) retry protocol; then
// receives the value before the add. The retry loop runs on the task's
// recycled BM step (steps.go) instead of per-call attempt closures.
func (t *Task) BMFetchAdd(addr uint32, delta uint64, then func(uint64)) {
	op := t.bmStep()
	op.kind, op.addr, op.delta, op.thenU = bmAdd, addr, delta, then
	op.attempt()
}

// BMFetchInc is fetch&increment.
func (t *Task) BMFetchInc(addr uint32, then func(uint64)) { t.BMFetchAdd(addr, 1, then) }

// BMFetchAddF64 is the floating-point fetch&add the paper proposes for
// scientific reductions (Section 4.3.5). The BM entry holds IEEE-754 bits;
// the addition is applied atomically at the commit of the broadcast. then
// receives the value before the add.
func (t *Task) BMFetchAddF64(addr uint32, delta float64, then func(float64)) {
	op := t.bmStep()
	op.kind, op.addr, op.delta, op.thenF = bmAddF64, addr, math.Float64bits(delta), then
	op.attempt()
}

// BMTestAndSet sets addr to 1; then receives the previous value, after
// retrying on atomicity failure.
func (t *Task) BMTestAndSet(addr uint32, then func(uint64)) {
	op := t.bmStep()
	op.kind, op.addr, op.thenU = bmTAS, addr, then
	op.attempt()
}

// BMCAS executes compare-and-swap with the Figure 4(b) protocol; then
// reports whether the swap was performed.
func (t *Task) BMCAS(addr uint32, old, nv uint64, then func(bool)) {
	op := t.bmStep()
	op.kind, op.addr, op.old, op.nv, op.thenB = bmCAS, addr, old, nv, then
	op.attempt()
}

// BMSpinUntil spins on the local BM replica until cond holds; then
// receives the satisfying value.
func (t *Task) BMSpinUntil(addr uint32, cond sim.Cond, then func(uint64)) {
	t.st.SetReasonArg("bm spin", uint64(addr))
	t.bm()
	op := t.hwStep()
	op.kind, op.addr, op.cond, op.thenU = hwBMSpin, addr, cond, then
	op.start()
}

// ---- Tone channel ISA (full WiSync only) ----

func (t *Task) toneHW() {
	if t.M.Tone == nil {
		panic("core: tone instruction on a configuration without the Tone channel")
	}
}

// ToneStore is tone_st: announce arrival at the tone barrier at addr. A
// fail-stopped transceiver cannot drive the Tone channel either: the task
// halts with a fault record, and the barrier it would have joined parks
// the survivors in a diagnosable deadlock.
func (t *Task) ToneStore(addr uint32, then func()) {
	t.st.SetReasonArg("tone store", uint64(addr))
	t.toneHW()
	if t.txGuard("tone store") {
		return
	}
	op := t.hwStep()
	op.kind, op.addr, op.then0 = hwToneStore, addr, then
	op.start()
}

// ToneWait spins with tone_ld until the barrier variable equals want.
func (t *Task) ToneWait(addr uint32, want uint64, then func()) {
	t.st.SetReasonArg("tone wait", uint64(addr))
	t.toneHW()
	if t.txGuard("tone wait") {
		return
	}
	op := t.hwStep()
	op.kind, op.addr, op.val, op.then0 = hwToneWait, addr, want, then
	op.start()
}

// AFB returns the task's Atomicity Failure Bit.
func (t *Task) AFB() bool {
	t.bm()
	return t.M.BM.AFB(t.Core)
}

// WCB returns the task's Write Completion Bit.
func (t *Task) WCB() bool {
	t.bm()
	return t.M.BM.WCB(t.Core)
}
