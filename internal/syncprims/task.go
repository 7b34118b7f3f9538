package syncprims

import (
	"fmt"

	"wisync/internal/core"
	"wisync/internal/sim"
)

// This file holds the primitives' operations. Each runs on completion
// callbacks; the locks and barriers run on recycled step structs so the
// steady state allocates no closures.

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
func (v *cacheVar) SpinUntilTask(t *core.Task, cond sim.Cond, then func(uint64)) {
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
func (v *bmVar) SpinUntilTask(t *core.Task, cond sim.Cond, then func(uint64)) {
	t.BMSpinUntil(v.addr, cond, then)
}

// ---- Recycled steps ----

// The locks and barriers run each operation on a step struct: the
// operation's state lives in fields, and its continuations are method
// values cached once, when the step is built. A task has one operation in
// flight, so a factory keeps one step per core for each primitive kind,
// shared by every lock or barrier of that kind; each operation sets the
// primitive it drives on the step. A step is free again once it has
// handed its user continuation on. So a program's synchronization state
// grows with its cores, not with its locks × cores — dedup creates 2,400
// locks.
//
// Sharing needs one task per core driving a factory's primitives at a
// time. takeStep panics when a second task breaks that while the first
// one's operation is still pending, instead of letting it overwrite the
// step.

// steps are a factory's recycled steps, one table per primitive kind, each
// indexed by core and built on first use.
type steps struct {
	spin       []*spinStep
	mcs        []*mcsStep
	central    []*centralStep
	tournament []*tournamentStep
	data       []*dataStep
	tone       []*toneStep
}

// op is the state every step shares: the task it serves and the user
// continuation it still owes, nil while the step is free.
type op struct {
	t    *core.Task
	then func()
}

func (o *op) state() *op { return o }

// handOff frees the step and returns its user continuation, for a last
// operation that runs the continuation itself.
func (o *op) handOff() func() {
	then := o.then
	o.then = nil
	return then
}

// finish frees the step and runs its user continuation.
func (o *op) finish() { o.handOff()() }

// takeStep claims t's core's step in tab for an operation that ends in
// then, building the step on first use (init caches its continuations).
func takeStep[S any, P interface {
	*S
	init()
	state() *op
}](tab *[]P, t *core.Task, then func()) P {
	if *tab == nil {
		*tab = make([]P, t.M.Cfg.Cores)
	}
	s := (*tab)[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = P(new(S))
		s.init()
		(*tab)[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	o := s.state()
	if o.then != nil {
		panic(fmt.Sprintf("syncprims: core %d started an operation on its %T while the previous one is still pending; "+
			"two tasks on one core are driving one factory's locks or barriers at once", t.Core, s))
	}
	o.t, o.then = t, then
	return s
}

// ---- Locks ----

// spinStep is spinLock's acquire: the test-and-test&set retry loop — spin
// until free, then attempt an atomic grab — step by step.
type spinStep struct {
	op
	tv TaskVar

	onFreeFn func(uint64)
	onCASFn  func(bool)
}

func (s *spinStep) init() {
	s.onFreeFn = s.onFree
	s.onCASFn = s.onCAS
}

func (l *spinLock) AcquireTask(t *core.Task, then func()) {
	s := takeStep(&l.f.steps.spin, t, then)
	s.tv = l.v
	s.attempt()
}

func (s *spinStep) attempt() { s.tv.SpinUntilTask(s.t, sim.Eq(0), s.onFreeFn) }

func (s *spinStep) onFree(uint64) { s.tv.CASTask(s.t, 0, 1, s.onCASFn) }

func (s *spinStep) onCAS(ok bool) {
	if !ok {
		s.attempt()
		return
	}
	s.finish()
}

func (l *spinLock) ReleaseTask(t *core.Task, then func()) {
	if v, ok := l.v.(*bmVar); ok {
		// A release broadcast that failed delivery reached no replica,
		// and every waiter would spin on a taken lock forever.
		t.BMStoreRetry(v.addr, 0, then)
		return
	}
	l.v.StoreTask(t, 0, then)
}

// mcsStep is mcsLock's queue-lock protocol with each memory operation a
// continuation. One struct serves both operations — a core never has an
// acquire and a release in flight together.
type mcsStep struct {
	op
	l    *mcsLock
	pred uint64

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

func (s *mcsStep) init() {
	s.afterInitFn = s.afterInit
	s.onSwapFn = s.onSwap
	s.afterLockedFn = s.afterLocked
	s.afterLinkFn = s.afterLink
	s.onAcqSpinFn = s.onAcqSpin
	s.onNextFn = s.onNext
	s.onTailCASFn = s.onTailCAS
	s.handoffFn = s.handoff
	s.doneFn = s.finish
}

func (l *mcsLock) AcquireTask(t *core.Task, then func()) {
	s := takeStep(&l.f.steps.mcs, t, then)
	s.l = l
	t.Instr(8) // qnode setup and pointer arithmetic
	t.Write(l.next(t.Core), 0, s.afterInitFn)
}

func (s *mcsStep) afterInit() { s.t.Swap(s.l.tail, uint64(s.t.Core+1), s.onSwapFn) }

func (s *mcsStep) onSwap(pred uint64) {
	if pred == 0 {
		s.finish()
		return
	}
	s.pred = pred
	s.t.Write(s.l.locked(s.t.Core), 1, s.afterLockedFn)
}

func (s *mcsStep) afterLocked() {
	s.t.Write(s.l.next(int(s.pred-1)), uint64(s.t.Core+1), s.afterLinkFn)
}

func (s *mcsStep) afterLink() {
	s.t.SpinUntil(s.l.locked(s.t.Core), sim.Eq(0), s.onAcqSpinFn)
}

func (s *mcsStep) onAcqSpin(uint64) { s.finish() }

func (l *mcsLock) ReleaseTask(t *core.Task, then func()) {
	s := takeStep(&l.f.steps.mcs, t, then)
	s.l = l
	t.Instr(6)
	t.Read(l.next(t.Core), s.onNextFn)
}

func (s *mcsStep) onNext(succ uint64) {
	if succ != 0 {
		s.handoff(succ)
		return
	}
	s.t.CAS(s.l.tail, uint64(s.t.Core+1), 0, s.onTailCASFn)
}

func (s *mcsStep) onTailCAS(ok bool) {
	if ok {
		s.finish()
		return
	}
	// A successor is linking itself; wait for the link.
	s.t.SpinUntil(s.l.next(s.t.Core), sim.Ne(0), s.handoffFn)
}

func (s *mcsStep) handoff(succ uint64) { s.t.Write(s.l.locked(int(succ-1)), 0, s.doneFn) }

// ---- Barriers ----

// centralStep is centralBarrier's episode: the CAS retry loop that counts
// the arrival, the last arriver's release, and the release-flag spin,
// step by step.
type centralStep struct {
	op
	b  *centralBarrier
	ep uint64
	c  uint64 // count value observed by the pending CAS

	onReadFn   func(uint64)
	onCASFn    func(bool)
	zeroDoneFn func()
	onSpinFn   func(uint64)
}

func (s *centralStep) init() {
	s.onReadFn = s.onRead
	s.onCASFn = s.onCAS
	s.zeroDoneFn = s.zeroDone
	s.onSpinFn = s.onSpin
}

func (b *centralBarrier) WaitTask(t *core.Task, then func()) {
	b.ep[t.Core]++
	s := takeStep(&b.f.steps.central, t, then)
	s.b, s.ep = b, b.ep[t.Core]
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
	s.t.SpinUntil(s.b.release, sim.Ge(s.ep), s.onSpinFn)
}

func (s *centralStep) zeroDone() { s.t.Write(s.b.release, s.ep, s.handOff()) }

func (s *centralStep) onSpin(uint64) { s.finish() }

// tournamentStep is tournamentBarrier's episode: the per-round
// winner/loser state machine, then the wakeups of the beaten opponents.
// r is the round being played, and during the wakeups the round whose
// opponent is woken next.
type tournamentStep struct {
	op
	b   *tournamentBarrier
	idx int
	ep  uint64
	r   int

	afterWinFn    func(uint64)
	afterReportFn func()
	afterWokenFn  func(uint64)
	afterWakeFn   func()
}

func (s *tournamentStep) init() {
	s.afterWinFn = s.afterWin
	s.afterReportFn = s.afterReport
	s.afterWokenFn = s.afterWoken
	s.afterWakeFn = s.afterWake
}

// WaitTask plays the tournament.
func (b *tournamentBarrier) WaitTask(t *core.Task, then func()) {
	idx := t.Core
	if idx >= b.n {
		panic(fmt.Sprintf("syncprims: thread %d beyond tournament size %d", idx, b.n))
	}
	b.ep[t.Core]++
	s := takeStep(&b.f.steps.tournament, t, then)
	s.b, s.idx, s.ep, s.r = b, idx, b.ep[t.Core], 0
	s.play()
}

// play plays rounds from s.r until this thread must wait: as a potential
// winner for its partner's arrival (a missing partner is a bye), or as
// the round's loser for its wakeup. A thread that never loses is the
// champion and starts the wakeups.
func (s *tournamentStep) play() {
	b, idx := s.b, s.idx
	for ; s.r < b.rounds; s.r++ {
		s.t.Instr(10) // round bookkeeping: role/partner/flag computation
		if idx&((1<<(s.r+1))-1) != 0 {
			// Loser of round r: report to the winner, then sleep until
			// woken, then wake the opponents beaten in earlier rounds.
			s.t.Write(b.arrive(s.r, idx-1<<s.r), s.ep, s.afterReportFn)
			return
		}
		if idx+1<<s.r < b.n {
			s.t.SpinUntil(b.arrive(s.r, idx), sim.Ge(s.ep), s.afterWinFn)
			return
		}
	}
	// Champion: wake everyone beaten, in reverse round order.
	s.r = b.rounds - 1
	s.wakeBeaten()
}

func (s *tournamentStep) afterWin(uint64) {
	s.r++
	s.play()
}

func (s *tournamentStep) afterReport() {
	s.t.SpinUntil(s.b.wake(s.idx), sim.Ge(s.ep), s.afterWokenFn)
}

func (s *tournamentStep) afterWoken(uint64) {
	s.r--
	s.wakeBeaten()
}

// wakeBeaten releases the opponent beaten in round s.r, then in each
// earlier round, one write at a time, and then runs the continuation.
func (s *tournamentStep) wakeBeaten() {
	for ; s.r >= 0; s.r-- {
		if partner := s.idx + 1<<s.r; partner < s.b.n {
			s.t.Write(s.b.wake(partner), s.ep, s.afterWakeFn)
			return
		}
	}
	s.finish()
}

func (s *tournamentStep) afterWake() {
	s.r--
	s.wakeBeaten()
}

// dataStep is dataBarrier's episode: fetch&inc arrival,
// last-arriver release store, local-replica spin.
type dataStep struct {
	op
	b  *dataBarrier
	ep uint64

	onArriveFn func(uint64)
	onSpinFn   func(uint64)
}

func (s *dataStep) init() {
	s.onArriveFn = s.onArrive
	s.onSpinFn = s.onSpin
}

func (b *dataBarrier) WaitTask(t *core.Task, then func()) {
	b.ep[t.Core]++
	s := takeStep(&b.f.steps.data, t, then)
	s.b, s.ep = b, b.ep[t.Core]
	t.BMFetchAdd(b.addr, 1, s.onArriveFn)
}

func (s *dataStep) onArrive(old uint64) {
	if (old&0xffffffff)+1 == s.b.n {
		s.release()
		return
	}
	s.t.BMSpinUntil(s.b.addr, sim.Ge(s.ep).Shifted(32), s.onSpinFn)
}

// release is the last arriver's store: zero the count and publish the
// episode in one wireless message. A release whose broadcast failed (a
// lossy channel exhausted its retries) reached no replica, and every other
// participant would spin forever, so it is reissued until it commits.
func (s *dataStep) release() { s.t.BMStoreRetry(s.b.addr, s.ep<<32, s.handOff()) }

func (s *dataStep) onSpin(uint64) { s.finish() }

// toneStep is toneBarrier's episode: tone_st, then the tone_ld spin.
type toneStep struct {
	op
	b *toneBarrier

	afterStoreFn func()
	afterWaitFn  func()
}

func (s *toneStep) init() {
	s.afterStoreFn = s.afterStore
	s.afterWaitFn = s.afterWait
}

func (b *toneBarrier) WaitTask(t *core.Task, then func()) {
	s := takeStep(&b.f.steps.tone, t, then)
	s.b = b
	t.ToneStore(b.addr, s.afterStoreFn)
}

func (s *toneStep) afterStore() {
	s.t.ToneWait(s.b.addr, s.b.sense[s.t.Core], s.afterWaitFn)
}

func (s *toneStep) afterWait() {
	s.b.sense[s.t.Core] ^= 1
	s.finish()
}
