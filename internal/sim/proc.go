package sim

import (
	"fmt"
	"runtime"
)

// Proc is a cooperative simulation process. Exactly one process runs at any
// instant; a process yields control by sleeping or parking, and the engine
// resumes it from a scheduled event. All Proc methods must be called from
// the process's own goroutine, except Wake, which is called by whoever
// unblocks it.
type Proc struct {
	eng        *Engine
	name       string
	resume     chan struct{}
	done       bool
	killed     bool
	parked     bool
	wakeQueued bool
	reason     string
}

// Go starts fn as a new process. The process begins running at the current
// simulation time (after already-queued same-cycle events).
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	if e.stopped {
		panic("sim: Go after Shutdown")
	}
	p := &Proc{eng: e, name: name, resume: make(chan struct{}), parked: true}
	e.procs[p] = struct{}{}
	go func() {
		defer p.exit()
		<-p.resume
		if p.killed {
			return
		}
		fn(p)
	}()
	e.scheduleProc(0, p)
	return p
}

// exit runs as the process goroutine's outermost defer: it records a panic
// for the engine to rethrow, retires the process, and passes the control
// token onward.
func (p *Proc) exit() {
	e := p.eng
	if r := recover(); r != nil {
		e.pv = r
		e.pstack = debugStack()
	}
	p.done = true
	if p.killed {
		// Shutdown resumed us and is blocked on handoff; it owns all
		// remaining bookkeeping.
		e.handoff <- struct{}{}
		return
	}
	delete(e.procs, p)
	// The recover above has already fired, so a panic raised by a callback
	// event run inline below would otherwise escape the goroutine and
	// abort the program. Catch it and route it to the engine like any
	// other process panic.
	defer func() {
		if r := recover(); r != nil {
			e.pv = r
			e.pstack = debugStack()
			e.handoff <- struct{}{}
		}
	}()
	// A dying process cannot be dispatched again (done is set), so run the
	// scheduler with self=nil and hand the token to whoever is next.
	if e.runEvents(nil) == tokenDone {
		e.handoff <- struct{}{}
	}
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.now }

// yield passes the control token onward and blocks until dispatched again.
// After the pass, this goroutine touches no engine state until its resume
// channel fires, so the next token holder runs undisturbed. If the next
// runnable event is this process's own wake-up (common when an inline
// callback — a channel arbiter, an invalidation — immediately re-wakes the
// parker), yield returns without any channel traffic.
func (p *Proc) yield() {
	e := p.eng
	switch e.runEvents(p) {
	case tokenSelf:
		return
	case tokenDone:
		e.handoff <- struct{}{}
	}
	<-p.resume
	if p.killed {
		runtime.Goexit()
	}
}

// Sleep suspends the process for d cycles. Sleep(0) yields and resumes in
// the same cycle, after other already-queued same-cycle events.
func (p *Proc) Sleep(d Time) {
	e := p.eng
	t := e.now + d
	if t < e.now {
		panic(fmt.Sprintf("sim: sleep of %d cycles overflows the clock", d))
	}
	// Zero-handoff fast path: if this wake-up would be the very next event
	// the engine pops — nothing else in the queue precedes (t, PrioNormal,
	// next-seq), and t is within the run horizon — then parking and being
	// re-dispatched would execute nothing in between. Advance the clock
	// inline instead. The sequence number is still consumed so event
	// ordering matches the slow path exactly.
	if t <= e.limit && e.ahead == 0 {
		// At equal times this event's sequence is the largest, so it only
		// precedes the queue head on a strictly earlier time — or the same
		// time when the head is PrioLate and this wake is PrioNormal. A
		// run's unrun members count as queued at the current cycle.
		if head := e.q.first(); head == nil ||
			t < head.t || (t == head.t && head.key >= prioBit) {
			e.seq++
			e.now = t
			return
		}
	}
	p.parked = true
	p.wakeQueued = true
	p.reason = "sleep"
	e.scheduleProc(d, p)
	p.yield()
}

// SleepUntil suspends the process until absolute time t (no-op if t is not
// in the future).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.Sleep(t - p.eng.now)
}

// Park suspends the process indefinitely; some other event must call Wake.
// The reason string is reported in deadlock diagnostics.
func (p *Proc) Park(reason string) {
	p.parked = true
	p.reason = reason
	p.yield()
}

// Wake schedules a parked process to resume after d cycles. Waking a
// process that is not parked, or that already has a wake queued, panics:
// both indicate a bookkeeping bug in the caller.
func (p *Proc) Wake(d Time) {
	if !p.parked || p.wakeQueued {
		panic("sim: Wake of process " + p.name + " that is not parked or already woken")
	}
	p.wakeQueued = true
	p.eng.scheduleProc(d, p)
}

// Parked reports whether the process is currently parked without a pending
// wake event.
func (p *Proc) Parked() bool { return p.parked && !p.wakeQueued }

func debugStack() []byte { return stackBytes() }
