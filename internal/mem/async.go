package mem

import "wisync/internal/sim"

// This file holds the memory system's workload-facing operations. Each
// takes a completion callback that runs at the cycle the access completes;
// misses run the txn state machine in txn.go.

// hitCont is a recycled L1-hit delivery continuation: the "sleep the L1
// round trip, then hand over the value" step of ReadAsync and RMWAsync,
// which would otherwise capture addr and then in a fresh closure on the
// hottest path in the simulator. useOld distinguishes the two delivery
// semantics: an RMW hit linearizes at issue time and delivers the captured
// old value; a read hit samples the word at fire time, exactly as the
// closure forms did.
type hitCont struct {
	s      *System
	addr   uint64
	old    uint64
	useOld bool
	then   func(uint64)
	fn     func() // cached method value of run
}

func (s *System) newHitCont(addr, old uint64, useOld bool, then func(uint64)) *hitCont {
	c := s.hits.Take(s.eng)
	if c == nil {
		c = s.hits.Made(&hitCont{s: s})
		c.fn = c.run
	}
	c.addr, c.old, c.useOld, c.then = addr, old, useOld, then
	return c
}

// clear drops the continuation of a delivery a cut run left pending.
func (c *hitCont) clear() { c.then = nil }

func (c *hitCont) run() {
	s, then := c.s, c.then
	v := c.old
	if !c.useOld {
		v = s.wordAt(c.addr)
	}
	c.then = nil
	s.hits.Put(c)
	then(v)
}

// ReadAsync loads the 64-bit word at addr from core's view of memory,
// charging the full coherence latency; then receives the value.
func (s *System) ReadAsync(core int, addr uint64, then func(uint64)) {
	line := Line(addr)
	if sl := s.lookup(core, line); sl != nil {
		s.Stats.L1Hits++
		s.eng.SleepThen(s.p.L1RT, s.newHitCont(addr, 0, false, then).fn)
		return
	}
	s.Stats.L1Misses++
	s.transactAsync(core, line, addr, nil, then)
}

// RMWAsync performs an atomic read-modify-write on the word at addr. The
// function f receives the current value and returns the new value and
// whether to perform the write (a failing CAS returns false); it must be
// pure and may be invoked once. then receives the value f observed.
// Updates serialize at the home directory, which holds the line
// exclusively for the write; an RMW that performs no write (failed
// compare) is serviced like a read — no invalidations, no ownership
// transfer — so compare failures do not storm the line.
func (s *System) RMWAsync(core int, addr uint64, f func(uint64) (uint64, bool), then func(uint64)) {
	line := Line(addr)
	if sl := s.lookup(core, line); sl != nil && (sl.state() == Modified || sl.state() == Exclusive) {
		// Exclusive hit: the update is local and atomic. It linearizes
		// now, while the line is verifiably exclusive — a forward
		// serialized during the L1 latency must observe the new value, or
		// a spinner can sample stale data and sleep forever. The old value
		// is delivered after the L1 latency.
		s.Stats.L1Hits++
		sl.setState(Modified)
		le := s.lines.fetch(line)
		old := le.words[wordIdx(addr)]
		if nv, do := f(old); do {
			le.words[wordIdx(addr)] = nv
		}
		s.eng.SleepThen(s.p.L1RT, s.newHitCont(addr, old, true, then).fn)
		return
	}
	s.Stats.L1Misses++
	s.transactAsync(core, line, addr, f, then)
}

// memSpin is a recycled spin loop: the onVal/respin continuation pair of
// SpinUntilAsync as struct fields and cached method values. Spins from
// different cores overlap, so the structs pool on the System (like txn)
// rather than living one-per-core; a spin returns to the pool the moment
// its condition is satisfied.
type memSpin struct {
	s    *System
	core int
	addr uint64
	line uint64
	cond sim.Cond
	then func(uint64)

	onValFn  func(uint64)
	respinFn func()
}

// clear drops the continuation of a spin a cut run left parked.
func (sp *memSpin) clear() { sp.then = nil }

func (sp *memSpin) respin() { sp.s.ReadAsync(sp.core, sp.addr, sp.onValFn) }

func (sp *memSpin) onVal(v uint64) {
	s := sp.s
	if sp.cond.Holds(v) {
		then := sp.then
		sp.then = nil
		s.spins.Put(sp)
		then(v)
		return
	}
	if s.lookup(sp.core, sp.line) == nil {
		sp.respin() // already invalidated again; re-read
		return
	}
	s.spinQueue(sp.core, sp.line).WaitFn(s.eng, sp.respinFn)
}

// SpinUntilAsync models a core spinning on the word at addr until cond
// holds, the way hardware does it: read once, then sit on the locally
// cached copy generating no traffic until the line is invalidated, then
// re-fetch. then receives the value that satisfied cond.
func (s *System) SpinUntilAsync(core int, addr uint64, cond sim.Cond, then func(uint64)) {
	sp := s.spins.Take(s.eng)
	if sp == nil {
		sp = s.spins.Made(&memSpin{s: s})
		sp.onValFn = sp.onVal
		sp.respinFn = sp.respin
	}
	sp.core, sp.addr, sp.line, sp.cond, sp.then = core, addr, Line(addr), cond, then
	sp.respin()
}
