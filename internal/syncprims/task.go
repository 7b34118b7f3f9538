package syncprims

import (
	"fmt"

	"wisync/internal/core"
)

// This file holds the primitives' operations. Each runs on completion
// callbacks; the hot locks and barriers keep per-core recycled step
// structs so the steady state allocates no closures.

// ---- Variables ----

func (v *cacheVar) LoadTask(t *core.Task, then func(uint64)) { t.Read(v.addr, then) }
func (v *cacheVar) StoreTask(t *core.Task, x uint64, then func()) {
	t.Write(v.addr, x, then)
}
func (v *cacheVar) CASTask(t *core.Task, old, nv uint64, then func(bool)) {
	t.CAS(v.addr, old, nv, then)
}
func (v *cacheVar) FetchAddTask(t *core.Task, d uint64, then func(uint64)) {
	t.FetchAdd(v.addr, d, then)
}
func (v *cacheVar) SpinUntilTask(t *core.Task, cond func(uint64) bool, then func(uint64)) {
	t.SpinUntil(v.addr, cond, then)
}

func (v *bmVar) LoadTask(t *core.Task, then func(uint64)) { t.BMLoad(v.addr, then) }
func (v *bmVar) StoreTask(t *core.Task, x uint64, then func()) {
	t.BMStore(v.addr, x, then)
}
func (v *bmVar) CASTask(t *core.Task, old, nv uint64, then func(bool)) {
	t.BMCAS(v.addr, old, nv, then)
}
func (v *bmVar) FetchAddTask(t *core.Task, d uint64, then func(uint64)) {
	t.BMFetchAdd(v.addr, d, then)
}
func (v *bmVar) SpinUntilTask(t *core.Task, cond func(uint64) bool, then func(uint64)) {
	t.BMSpinUntil(v.addr, cond, then)
}

// ---- Locks ----

// The locks run on per-core recycled step structs, exactly like the
// barriers below: a core holds at most one pending operation on a given
// lock at a time, so each (lock, core) pair owns a single state machine
// whose continuations are method values cached at construction. The steps
// slices are allocated lazily on first use. This removes the per-operation
// closure tree from the lock hot path — radiosity's serialized hot locks
// acquire millions of times per run.

// lockFree and lockTaken are the shared spin predicates (capture-free, so
// they never allocate).
func lockFree(x uint64) bool  { return x == 0 }
func lockTaken(x uint64) bool { return x != 0 }

// spinStep is spinLock's acquire: the test-and-test&set retry loop — spin
// until free, then attempt an atomic grab — step by step.
type spinStep struct {
	l    *spinLock
	t    *core.Task
	tv   TaskVar
	then func()

	onFreeFn func(uint64)
	onCASFn  func(bool)
}

func (l *spinLock) AcquireTask(t *core.Task, then func()) {
	if l.steps == nil {
		l.steps = make([]*spinStep, t.M.Cfg.Cores)
	}
	s := l.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &spinStep{l: l, tv: l.v}
		s.onFreeFn = s.onFree
		s.onCASFn = s.onCAS
		l.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t, s.then = t, then
	s.attempt()
}

func (s *spinStep) attempt() { s.tv.SpinUntilTask(s.t, lockFree, s.onFreeFn) }

func (s *spinStep) onFree(uint64) { s.tv.CASTask(s.t, 0, 1, s.onCASFn) }

func (s *spinStep) onCAS(ok bool) {
	if !ok {
		s.attempt()
		return
	}
	then := s.then
	s.then = nil
	then()
}

func (l *spinLock) ReleaseTask(t *core.Task, then func()) {
	l.v.StoreTask(t, 0, then)
}

// mcsStep is mcsLock's queue-lock protocol with each memory operation a
// continuation. One struct serves both operations — a core never has an
// acquire and a release of the same lock in flight together.
type mcsStep struct {
	l    *mcsLock
	t    *core.Task
	me   int
	pred uint64
	then func()

	// Acquire chain.
	afterInitFn   func()
	onSwapFn      func(uint64)
	afterLockedFn func()
	afterLinkFn   func()
	onAcqSpinFn   func(uint64)
	// Release chain.
	onNextFn    func(uint64)
	onTailCASFn func(bool)
	handoffFn   func(uint64)
	doneFn      func()
}

func (l *mcsLock) step(t *core.Task) *mcsStep {
	if l.steps == nil {
		l.steps = make([]*mcsStep, len(l.locked))
	}
	s := l.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &mcsStep{l: l, me: t.Core}
		s.afterInitFn = s.afterInit
		s.onSwapFn = s.onSwap
		s.afterLockedFn = s.afterLocked
		s.afterLinkFn = s.afterLink
		s.onAcqSpinFn = s.onAcqSpin
		s.onNextFn = s.onNext
		s.onTailCASFn = s.onTailCAS
		s.handoffFn = s.handoff
		s.doneFn = s.done
		l.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t = t
	return s
}

func (l *mcsLock) AcquireTask(t *core.Task, then func()) {
	s := l.step(t)
	s.then = then
	t.Instr(8) // qnode setup and pointer arithmetic
	t.Write(l.next[s.me], 0, s.afterInitFn)
}

func (s *mcsStep) afterInit() { s.t.Swap(s.l.tail, uint64(s.me+1), s.onSwapFn) }

func (s *mcsStep) onSwap(pred uint64) {
	if pred == 0 {
		s.done()
		return
	}
	s.pred = pred
	s.t.Write(s.l.locked[s.me], 1, s.afterLockedFn)
}

func (s *mcsStep) afterLocked() {
	s.t.Write(s.l.next[s.pred-1], uint64(s.me+1), s.afterLinkFn)
}

func (s *mcsStep) afterLink() {
	s.t.SpinUntil(s.l.locked[s.me], lockFree, s.onAcqSpinFn)
}

func (s *mcsStep) onAcqSpin(uint64) { s.done() }

func (l *mcsLock) ReleaseTask(t *core.Task, then func()) {
	s := l.step(t)
	s.then = then
	t.Instr(6)
	t.Read(l.next[s.me], s.onNextFn)
}

func (s *mcsStep) onNext(succ uint64) {
	if succ != 0 {
		s.handoff(succ)
		return
	}
	s.t.CAS(s.l.tail, uint64(s.me+1), 0, s.onTailCASFn)
}

func (s *mcsStep) onTailCAS(ok bool) {
	if ok {
		s.done()
		return
	}
	// A successor is linking itself; wait for the link.
	s.t.SpinUntil(s.l.next[s.me], lockTaken, s.handoffFn)
}

func (s *mcsStep) handoff(succ uint64) { s.t.Write(s.l.locked[succ-1], 0, s.doneFn) }

func (s *mcsStep) done() {
	then := s.then
	s.then = nil
	then()
}

// ---- Barriers ----

// The barriers run on per-core recycled step structs: a core waits on one
// episode of one barrier at a time, so each (barrier, core) pair owns a
// single state machine whose continuations are method values cached at
// construction. The steps slices are sized like the barriers' per-core
// episode arrays and allocated lazily on first use. This removes the
// per-episode closure captures from the barrier hot path — the pattern the
// kernels and apps interpreters use for their own loops (see
// kernels.readRanger, apps.appTask).

// centralStep is centralBarrier's episode: the CAS retry loop that counts
// the arrival, the last arriver's release, and the release-flag spin,
// step by step.
type centralStep struct {
	b    *centralBarrier
	t    *core.Task
	ep   uint64
	c    uint64 // count value observed by the pending CAS
	then func()

	onReadFn   func(uint64)
	onCASFn    func(bool)
	zeroDoneFn func()
	condFn     func(uint64) bool
	onSpinFn   func(uint64)
}

func (b *centralBarrier) WaitTask(t *core.Task, then func()) {
	b.ep[t.Core]++
	if b.steps == nil {
		b.steps = make([]*centralStep, len(b.ep))
	}
	s := b.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &centralStep{b: b}
		s.onReadFn = s.onRead
		s.onCASFn = s.onCAS
		s.zeroDoneFn = s.zeroDone
		s.condFn = s.cond
		s.onSpinFn = s.onSpin
		b.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t, s.ep, s.then = t, b.ep[t.Core], then
	s.arrive()
}

func (s *centralStep) arrive() { s.t.Read(s.b.count, s.onReadFn) }

func (s *centralStep) onRead(c uint64) {
	s.c = c
	s.t.CAS(s.b.count, c, c+1, s.onCASFn)
}

func (s *centralStep) onCAS(ok bool) {
	if !ok {
		s.t.Instr(4)
		s.arrive()
		return
	}
	if s.c+1 == s.b.n {
		s.t.Write(s.b.count, 0, s.zeroDoneFn)
		return
	}
	s.t.SpinUntil(s.b.release, s.condFn, s.onSpinFn)
}

func (s *centralStep) zeroDone() {
	then := s.then
	s.then = nil
	s.t.Write(s.b.release, s.ep, then)
}

func (s *centralStep) cond(v uint64) bool { return v >= s.ep }

func (s *centralStep) onSpin(uint64) {
	then := s.then
	s.then = nil
	then()
}

// WaitTask plays the tournament: the per-round winner/loser state machine.
func (b *tournamentBarrier) WaitTask(t *core.Task, then func()) {
	idx := t.Core
	if idx >= b.n {
		panic(fmt.Sprintf("syncprims: thread %d beyond tournament size %d", idx, b.n))
	}
	b.ep[t.Core]++
	ep := b.ep[t.Core]
	// wakeFrom releases every beaten opponent from round r down, one write
	// continuation at a time, then runs then.
	var wakeFrom func(r int)
	wakeFrom = func(r int) {
		for ; r >= 0; r-- {
			partner := idx + 1<<r
			if partner < b.n {
				rr := r
				t.Write(b.wake[partner], ep, func() { wakeFrom(rr - 1) })
				return
			}
		}
		then()
	}
	var round func(r int)
	round = func(r int) {
		if r == b.rounds {
			// Champion (never lost): wake everyone beaten, in reverse
			// round order.
			wakeFrom(b.rounds - 1)
			return
		}
		t.Instr(10) // round bookkeeping: role/partner/flag computation
		if idx&((1<<(r+1))-1) == 0 {
			// Potential winner of round r: wait for the partner (or take
			// a bye if it does not exist).
			partner := idx + 1<<r
			if partner < b.n {
				t.SpinUntil(b.arrive[r*b.n+idx], func(v uint64) bool { return v >= ep },
					func(uint64) { round(r + 1) })
				return
			}
			round(r + 1)
			return
		}
		// Loser of round r: report to the winner, then sleep until woken,
		// then wake the opponents beaten in earlier rounds.
		winner := idx - 1<<r
		lose := r
		t.Write(b.arrive[r*b.n+winner], ep, func() {
			t.SpinUntil(b.wake[idx], func(v uint64) bool { return v >= ep },
				func(uint64) { wakeFrom(lose - 1) })
		})
	}
	round(0)
}

// dataStep is dataBarrier's episode: fetch&inc arrival,
// last-arriver release store, local-replica spin.
type dataStep struct {
	b    *dataBarrier
	t    *core.Task
	ep   uint64
	then func()

	onArriveFn func(uint64)
	condFn     func(uint64) bool
	onSpinFn   func(uint64)
}

func (b *dataBarrier) WaitTask(t *core.Task, then func()) {
	b.ep[t.Core]++
	if b.steps == nil {
		b.steps = make([]*dataStep, len(b.ep))
	}
	s := b.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &dataStep{b: b}
		s.onArriveFn = s.onArrive
		s.condFn = s.cond
		s.onSpinFn = s.onSpin
		b.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t, s.ep, s.then = t, b.ep[t.Core], then
	t.BMFetchAdd(b.addr, 1, s.onArriveFn)
}

func (s *dataStep) onArrive(old uint64) {
	if (old&0xffffffff)+1 == s.b.n {
		// Last arriver: zero the count and publish the episode in one
		// wireless message.
		then := s.then
		s.then = nil
		s.t.BMStore(s.b.addr, s.ep<<32, then)
		return
	}
	s.t.BMSpinUntil(s.b.addr, s.condFn, s.onSpinFn)
}

func (s *dataStep) cond(v uint64) bool { return v>>32 >= s.ep }

func (s *dataStep) onSpin(uint64) {
	then := s.then
	s.then = nil
	then()
}

// toneStep is toneBarrier's episode: tone_st, then the tone_ld spin.
type toneStep struct {
	b    *toneBarrier
	t    *core.Task
	then func()

	afterStoreFn func()
	afterWaitFn  func()
}

func (b *toneBarrier) WaitTask(t *core.Task, then func()) {
	if b.steps == nil {
		b.steps = make([]*toneStep, len(b.sense))
	}
	s := b.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &toneStep{b: b}
		s.afterStoreFn = s.afterStore
		s.afterWaitFn = s.afterWait
		b.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t, s.then = t, then
	t.ToneStore(b.addr, s.afterStoreFn)
}

func (s *toneStep) afterStore() {
	s.t.ToneWait(s.b.addr, s.b.sense[s.t.Core], s.afterWaitFn)
}

func (s *toneStep) afterWait() {
	then := s.then
	s.then = nil
	s.b.sense[s.t.Core] ^= 1
	then()
}
