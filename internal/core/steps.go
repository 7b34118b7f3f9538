package core

import (
	"math"

	"wisync/internal/sim"
)

// This file holds the recycled continuation steps behind the hot Task
// operations. The straightforward continuation form of an operation like
// CAS captures its parameters in two or three short-lived closures (the
// read-modify function, the completion wrapper, and — when compute is
// pending — the flush continuation); at millions of operations per sweep
// those captures dominate the allocation profile. Each Task instead owns
// one reusable step struct per operation family, modeled on mem's recycled
// txn: parameters live in struct fields, the continuations are method
// values cached at construction, and issuing an operation is a handful of
// stores. A task performs one operation at a time (continuation
// discipline), so a single struct per family suffices; a completion
// continuation may immediately issue the next operation on the same struct
// because every field the finished operation needs is read before the user
// continuation runs.
//
// Reuse is reported through Engine.StepPoolHit/StepPoolMiss so `wisync-
// bench -v` can confirm the steady state allocates nothing.

// rmwKind selects which cached-memory operation an rmwOp performs.
type rmwKind uint8

const (
	rmwWrite rmwKind = iota
	rmwCAS
	rmwFetchAdd
	rmwSwap
)

// rmwOp is the recycled step behind Write, CAS, FetchAdd and Swap — the
// operations the generic RMW would otherwise serve with per-call closures.
// Exactly one of then0/thenB/thenU is set, matching kind.
type rmwOp struct {
	t    *Task
	kind rmwKind
	addr uint64
	val  uint64 // store/swap value, CAS new value, fetch&add delta
	old  uint64 // CAS expected value

	then0 func()
	thenB func(bool)
	thenU func(uint64)

	issueFn func()
	fFn     func(uint64) (uint64, bool)
	doneFn  func(uint64)
}

// Task.used bits: the step families a task has used since it was spawned.
const (
	stepRMW uint8 = 1 << iota
	stepBM
	stepHW
)

// firstUse reports whether this is the task's first use of the step family
// since it was spawned, and counts the use: a miss the first time, as a
// new task would count the step it makes, and a hit after. A step the task
// kept from an earlier point needs no reset: every operation sets the
// fields it reads before it issues.
func (t *Task) firstUse(family uint8) bool {
	if t.used&family != 0 {
		t.M.Eng.StepPoolHit()
		return false
	}
	t.used |= family
	t.M.Eng.StepPoolMiss()
	return true
}

// rmwStep returns the task's recycled cached-memory step, making it on
// first use.
func (t *Task) rmwStep() *rmwOp {
	if t.firstUse(stepRMW) && t.rmw == nil {
		op := &rmwOp{t: t}
		op.issueFn = op.issue
		op.fFn = op.f
		op.doneFn = op.done
		t.rmw = op
	}
	return t.rmw
}

// start issues the operation with Task.Read's pending-compute discipline
// (see there for why the flush is inlined): one SleepThen when compute is
// pending, a direct issue otherwise — the same sequence positions as the
// closure form it replaces.
func (op *rmwOp) start(addr uint64) {
	t := op.t
	t.st.SetReasonArg("mem rmw", addr)
	op.addr = addr
	if t.pending > 0 {
		d := t.pending
		t.pending = 0
		t.M.Eng.SleepThen(d, op.issueFn)
		return
	}
	op.issue()
}

func (op *rmwOp) issue() {
	t := op.t
	t.M.Mem.RMWAsync(t.Core, op.addr, op.fFn, op.doneFn)
}

// f is the read-modify function, dispatched on kind. It is pure and
// invoked at most once per operation, as System.RMWAsync requires.
func (op *rmwOp) f(cur uint64) (uint64, bool) {
	switch op.kind {
	case rmwCAS:
		return op.val, cur == op.old
	case rmwFetchAdd:
		return cur + op.val, true
	}
	return op.val, true // write, swap
}

// done hands the observed value to the user continuation. The continuation
// field is cleared and read into a local first, so the continuation may
// immediately reuse the struct for its next operation.
func (op *rmwOp) done(got uint64) {
	switch op.kind {
	case rmwWrite:
		then := op.then0
		op.then0 = nil
		then()
	case rmwCAS:
		then := op.thenB
		op.thenB = nil
		then(got == op.old)
	default:
		then := op.thenU
		op.thenU = nil
		then(got)
	}
}

// hwKind selects which hardware-model operation an hwOp issues.
type hwKind uint8

const (
	hwBMLoad hwKind = iota
	hwBMStore
	hwBMStoreRetry
	hwBMStoreCheck
	hwBMSpin
	hwToneStore
	hwToneWait
	hwMemSpin
	hwMemRead
)

// hwOp is the recycled step behind the flush-wrapped hardware operations
// (BMLoad, BMStore, BMStoreRetry, BMSpinUntil, ToneStore, ToneWait,
// SpinUntil): the "elapse pending compute, then issue" closure those
// methods used to build per call. The user continuations are handed
// straight to the hardware model at issue time (read into locals and
// cleared first), so the struct is free for the next operation the moment
// the continuation fires; BMStoreRetry and ToneWait keep theirs until
// they complete.
type hwOp struct {
	t      *Task
	kind   hwKind
	addr   uint32
	addr64 uint64 // cached-memory spin address
	val    uint64 // BM store value / tone want
	cond   sim.Cond
	then0  func()
	thenU  func(uint64)

	issueFn  func()
	onToneFn func(uint64)
}

// hwStep returns the task's recycled hardware-operation step, making it
// on first use.
func (t *Task) hwStep() *hwOp {
	if t.firstUse(stepHW) && t.hw == nil {
		op := &hwOp{t: t}
		op.issueFn = op.issue
		op.onToneFn = op.onTone
		t.hw = op
	}
	return t.hw
}

// start issues the operation with flush's pending-compute discipline: one
// SleepThen when compute is pending, a direct issue otherwise.
func (op *hwOp) start() {
	t := op.t
	if t.pending > 0 {
		d := t.pending
		t.pending = 0
		t.M.Eng.SleepThen(d, op.issueFn)
		return
	}
	op.issue()
}

func (op *hwOp) issue() {
	t := op.t
	switch op.kind {
	case hwBMLoad:
		then := op.thenU
		op.thenU = nil
		t.must(t.M.BM.LoadAsync(t.Core, t.PID, op.addr, then))
	case hwBMStore:
		then := op.then0
		op.then0 = nil
		t.must(t.M.BM.StoreAsync(t.Core, t.PID, op.addr, op.val, then))
	case hwBMStoreRetry:
		// A try of BMStoreRetry completes back here, as hwBMStoreCheck;
		// then0 stays set until a try commits.
		op.kind = hwBMStoreCheck
		t.must(t.M.BM.StoreAsync(t.Core, t.PID, op.addr, op.val, op.issueFn))
	case hwBMStoreCheck:
		if !t.M.BM.WCB(t.Core) {
			// The write reached no replica: the 2-instruction
			// check-and-branch, then the next try.
			t.Instr(2)
			if t.txGuard("bm store") {
				return
			}
			op.kind = hwBMStoreRetry
			op.start()
			return
		}
		then := op.then0
		op.then0 = nil
		then()
	case hwBMSpin:
		then := op.thenU
		op.thenU = nil
		t.must(t.M.BM.SpinUntilAsync(t.Core, t.PID, op.addr, op.cond, then))
	case hwToneStore:
		then := op.then0
		op.then0 = nil
		t.must(t.M.Tone.ToneStoreAsync(t.Core, t.PID, op.addr, then))
	case hwToneWait:
		// then0 stays set until the toggle fires: the task is suspended
		// in the tone wait, so the struct cannot be reused meanwhile.
		t.must(t.M.Tone.WaitToggleAsync(t.Core, t.PID, op.addr, op.val, op.onToneFn))
	case hwMemSpin:
		then := op.thenU
		op.thenU = nil
		t.M.Mem.SpinUntilAsync(t.Core, op.addr64, op.cond, then)
	case hwMemRead:
		then := op.thenU
		op.thenU = nil
		t.M.Mem.ReadAsync(t.Core, op.addr64, then)
	}
}

// onTone adapts WaitToggleAsync's value-carrying completion to ToneWait's
// niladic continuation.
func (op *hwOp) onTone(uint64) {
	then := op.then0
	op.then0 = nil
	then()
}

// bmKind selects which Broadcast Memory retry protocol a bmRetryOp runs.
type bmKind uint8

const (
	bmAdd bmKind = iota
	bmAddF64
	bmTAS
	bmCAS
)

// bmRetryOp is the recycled step behind the Figure 4 BM retry protocols
// (BMFetchAdd, BMFetchAddF64, BMTestAndSet, BMCAS): a hardware RMW attempt
// repeated until the atomicity-failure bit stays clear, with the
// 2-instruction check-and-branch charge between attempts. Exactly one of
// thenU/thenB/thenF is set, matching kind.
type bmRetryOp struct {
	t     *Task
	kind  bmKind
	addr  uint32
	delta uint64 // fetch&add; IEEE-754 bits for bmAddF64
	old   uint64 // CAS expected value
	nv    uint64 // CAS new value

	thenU func(uint64)
	thenB func(bool)
	thenF func(float64)

	issueFn func()
	fFn     func(uint64) (uint64, bool)
	doneFn  func(uint64, bool)
}

// bmStep returns the task's recycled BM retry step, making it on first
// use.
func (t *Task) bmStep() *bmRetryOp {
	if t.firstUse(stepBM) && t.bmr == nil {
		op := &bmRetryOp{t: t}
		op.issueFn = op.issue
		op.fFn = op.f
		op.doneFn = op.done
		t.bmr = op
	}
	return t.bmr
}

// attempt runs one hardware RMW attempt with the reason, validation and
// flush discipline of every BM operation, its continuations cached method
// values.
func (op *bmRetryOp) attempt() {
	t := op.t
	t.st.SetReasonArg("bm rmw", uint64(op.addr))
	t.bm()
	// A fail-stopped transceiver turns this retry loop into a livelock
	// (every attempt fails); halt with a fault record instead, checked at
	// the top of every attempt.
	if t.txGuard("bm rmw") {
		return
	}
	if t.pending > 0 {
		d := t.pending
		t.pending = 0
		t.M.Eng.SleepThen(d, op.issueFn)
		return
	}
	op.issue()
}

func (op *bmRetryOp) issue() {
	t := op.t
	t.must(t.M.BM.RMWAsync(t.Core, t.PID, op.addr, op.fFn, op.doneFn))
}

func (op *bmRetryOp) f(cur uint64) (uint64, bool) {
	switch op.kind {
	case bmAdd:
		return cur + op.delta, true
	case bmAddF64:
		return math.Float64bits(math.Float64frombits(cur) + math.Float64frombits(op.delta)), true
	case bmTAS:
		if cur != 0 {
			return cur, false // already set; read is enough
		}
		return 1, true
	}
	return op.nv, cur == op.old // bmCAS
}

func (op *bmRetryOp) done(old uint64, ok bool) {
	if !ok {
		// AFB set: retry (a couple of pipeline cycles to check the
		// register and branch back).
		op.t.Instr(2)
		op.attempt()
		return
	}
	switch op.kind {
	case bmCAS:
		then := op.thenB
		op.thenB = nil
		then(old == op.old)
	case bmAddF64:
		then := op.thenF
		op.thenF = nil
		then(math.Float64frombits(old))
	default:
		then := op.thenU
		op.thenU = nil
		then(old)
	}
}
