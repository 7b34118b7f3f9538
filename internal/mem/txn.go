package mem

import (
	"math/bits"

	"wisync/internal/sim"
)

func (s *System) setsMask() uint64 { return uint64(s.p.L1Sets - 1) }

// transactAsync runs a directory transaction for core on line. If f is nil
// this is a read (Shared grant); otherwise an exclusive grant applying f to
// the word at addr at the serialization point. done receives the observed
// value at the reply, after the requester-side fill bookkeeping.
//
// The protocol executes as a chain of engine-scheduled continuations (the
// txn state machine below): line arbitration, settle waits,
// memory-controller queueing and hold times all run as callback events, and
// the requester is resumed once, by the reply event.
//
// The transaction looks its line up once, here, and keeps the entry until
// its reply. A line touched for the first time gets its entry now rather
// than at arrival, which changes nothing simulated: a fresh entry is a
// free line that no core holds.
//
// The request reaches the home after the mesh flight, under the sequence
// number it reserves now. If the line is held at issue, that arrival
// would only join the line's waiters, so the request joins them now at
// its arrival position and needs no event; a release that finds it not
// yet arrived turns its arrival back into an event (fifoLock.release).
func (s *System) transactAsync(core int, line uint64, addr uint64, f func(uint64) (uint64, bool), done func(uint64)) {
	s.Stats.Transactions++
	t := s.newTxn()
	t.done, t.core, t.line, t.addr, t.f = done, core, line, addr, f
	t.le = s.lines.fetch(line)
	t.home = s.home(line)
	t.at = s.eng.Now() + sim.Time(s.mesh.Latency(core, t.home))
	t.key = s.eng.Reserve()
	if t.le.dir.lock.held {
		t.state = stepHeld
		t.le.dir.lock.insert(t)
		return
	}
	t.state = stepArrive
	s.eng.ScheduleReserved(t.at, t.key, t.step)
}

// txnStep selects the statement block a transaction continuation executes
// when its pending event fires.
type txnStep uint8

const (
	// stepArrive: the request reached the home bank; acquire the line.
	stepArrive txnStep = iota
	// stepHeld: the line is acquired; wait out a settling prior grant.
	stepHeld
	// stepDecide: decide the grant, issue invalidations, start fetches.
	stepDecide
	// stepSharedRecord: record the sharer/owner after a shared-grant fetch.
	stepSharedRecord
	// stepExclRecord: take ownership after an exclusive-grant fetch.
	stepExclRecord
	// stepFetchOcc: the memory-controller port is acquired; pay occupancy.
	stepFetchOcc
	// stepFetchRel: occupancy paid; release the port and resume at next.
	stepFetchRel
	// stepServe: the home-side hold elapsed; serialize, release, reply.
	stepServe
)

// txn is one directory transaction running as an engine-scheduled
// continuation chain. Each suspension (request flight, settle wait,
// controller occupancy, hold, reply flight) is one scheduled firing of
// step; the requester waits through all of them and is resumed once, when
// serve schedules the reply.
type txn struct {
	s    *System
	done func(uint64) // requester's completion, run by fin at the reply
	core int
	line uint64
	addr uint64
	f    func(uint64) (uint64, bool)

	// le is the line's entry, looked up once, by transactAsync.
	le    *lineEntry
	home  int
	state txnStep
	next  txnStep // continuation after the memory-fetch sub-chain
	step  func()  // cached method value of run; scheduled for every event
	fin   func()  // cached method value of finish, the async reply event

	// id is the transaction's 1-based index in System.txns, kept across
	// recycling; waitPrev and waitNext are the ids of t's neighbours in
	// the fifoLock queue t waits in, or 0.
	id, waitPrev, waitNext uint32
	// at and key are the position of t's pending event in the engine's
	// event order: its arrival at the home while it waits for its line
	// (or joins a memory-controller port's queue), then its serve while
	// it holds the line.
	at  sim.Time
	key uint64

	rmwNew     uint64
	noWriteRMW bool
	hold       sim.Time
	ackWait    sim.Time
	fwdSrc     int
	hadOwner   bool
	fetchLat   sim.Time
	fetchMC    int

	// Results delivered by finish at the reply.
	old   uint64
	grant State
	// stale is set by an invalidation of the line at the requester while
	// the reply is in flight (the transaction is on its core's mshr list).
	stale bool
}

func (s *System) newTxn() *txn {
	if n := len(s.txnFree); n > 0 {
		t := s.txnFree[n-1]
		s.txnFree = s.txnFree[:n-1]
		return t
	}
	t := &txn{s: s, id: uint32(len(s.txns) + 1)}
	t.step = t.run
	t.fin = t.finish
	s.txns = append(s.txns, t)
	return t
}

func (s *System) freeTxn(t *txn) {
	t.done, t.f, t.le = nil, nil, nil
	s.txnFree = append(s.txnFree, t)
}

// finish is the requester's reply event: it runs the requester-side
// epilogue, then hands the observed value to the completion callback.
func (t *txn) finish() {
	old, done := t.old, t.done
	t.s.reply(t)
	done(old)
}

// reply is the requester-side epilogue of a transaction: take it off its
// core's in-flight list, install the fill unless an invalidation overtook
// it, and recycle it.
func (s *System) reply(t *txn) {
	if t.grant != Invalid {
		s.l1[t.core].unlist(t)
		if !t.stale {
			s.fill(t.core, t.line, t.grant)
		}
	}
	s.freeTxn(t)
}

// run executes the pending step; each suspension schedules the successor
// step at its delay.
func (t *txn) run() {
	s := t.s
	switch t.state {
	case stepArrive:
		t.state = stepHeld
		t.le.dir.lock.acquire(t)
	case stepHeld:
		if now := s.eng.Now(); now < t.le.dir.settleAt {
			// A previous ownership grant is still settling at its owner.
			t.state = stepDecide
			s.eng.Schedule(t.le.dir.settleAt-now, t.step)
			return
		}
		t.decide()
	case stepDecide:
		t.decide()
	case stepSharedRecord:
		t.sharedRecord()
	case stepExclRecord:
		t.exclRecord()
	case stepFetchOcc:
		t.state = stepFetchRel
		s.eng.Schedule(s.p.MemCtrlOcc, t.step)
	case stepFetchRel:
		// Every waiter of a port has arrived.
		s.mc[t.fetchMC].release(s, ^uint64(0))
		t.le.dir.inL2 = true
		t.hold += t.fetchLat + s.p.MemRT
		t.state = t.next
		t.run() // the interrupted decide branch continues inline
	case stepServe:
		t.serve()
	}
}

// decide runs with the line held: the committed word value cannot change,
// so an RMW decision made now is the serialization decision. A no-write
// RMW (failed compare) is serviced like an uncached read: the requester
// learns the value but installs no copy and registers as no sharer — so
// CAS retry storms neither inflate the sharer set nor pay ownership
// transfers.
func (t *txn) decide() {
	s, d := t.s, &t.le.dir
	owner := d.owner()

	t.rmwNew, t.noWriteRMW = 0, false
	doWrite := false
	if t.f != nil {
		t.rmwNew, doWrite = t.f(t.le.words[wordIdx(t.addr)])
		if !doWrite {
			t.f = nil
			t.noWriteRMW = true
		}
	}

	// Home-side processing while the line is held. ackWait is latency the
	// requester pays after the home moves on (invalidation acks collect at
	// the requester, off the home's critical path, as in ack-counting
	// directory protocols).
	t.hold, t.ackWait = 0, 0
	t.fwdSrc = -1
	t.hadOwner = owner >= 0
	if t.f == nil { // ---- Shared grant ----
		sl := (*l1slot)(nil)
		if owner >= 0 && owner != t.core {
			sl = s.lookup(owner, t.line)
		}
		switch {
		case owner >= 0 && owner != t.core &&
			sl != nil && (sl.state() == Modified || sl.state() == Exclusive):
			// Settled owner: forward; owner supplies data and
			// downgrades M/E -> O (stays owner, MOESI).
			s.Stats.Forwards++
			t.fwdSrc = owner
			t.hold = sim.Time(s.mesh.Latency(t.home, owner)) + s.p.L1RT
			sl.setState(Owned)
		case owner >= 0 && owner != t.core:
			// Owner evicted or holds only a downgraded copy; recall
			// it entirely (copy, in-flight fill, and spinners) and
			// serve from home, so the directory and the L1s never
			// disagree about ownership.
			s.invalidateL1(owner, t.line)
			d.setOwner(-1)
			d.inL2 = true
			t.hold = s.p.L2RT
		case d.inL2:
			t.hold = s.p.L2RT
		default:
			t.startFetch(stepSharedRecord)
			return
		}
		t.sharedRecord()
	} else { // ---- Exclusive grant ----
		// Invalidate every other copy. The home issues the
		// invalidations (occupying the line briefly); the farthest ack
		// round trip is charged to the requester.
		maxHops := 0
		ninv := 0
		for wi, w := range d.sharers {
			for ; w != 0; w &= w - 1 {
				i := wi<<6 | bits.TrailingZeros64(w)
				if i == t.core {
					continue
				}
				ninv++
				if h := s.mesh.Hops(t.home, i); h > maxHops {
					maxHops = h
				}
				s.invalidateL1(i, t.line)
			}
		}
		d.sharers = bitset{}
		if owner >= 0 && owner != t.core {
			ninv++
			if h := s.mesh.Hops(t.home, owner); h > maxHops {
				maxHops = h
			}
			s.invalidateL1(owner, t.line)
			d.inL2 = true // owner's (possibly dirty) data returns home
		}
		switch {
		case ninv > 0:
			t.hold = s.p.L2RT + s.invIssueOccupancy(ninv)
			t.ackWait = s.invAckLatency(maxHops, ninv)
			if !d.inL2 {
				t.startFetch(stepExclRecord)
				return
			}
		case d.inL2 || owner == t.core:
			t.hold = s.p.L2RT
		default:
			t.startFetch(stepExclRecord)
			return
		}
		t.exclRecord()
	}
}

// sharedRecord runs the shared-grant bookkeeping (after the memory fetch,
// when one was needed), then waits out the home-side hold.
func (t *txn) sharedRecord() {
	d := &t.le.dir
	switch {
	case t.noWriteRMW:
		// Value-only reply: no copy installed, nothing recorded.
	case !t.hadOwner && d.sharers.empty():
		// Genuinely sole copy: grant Exclusive. (When an owner's
		// grant was in flight and had to be aborted, grant only
		// Shared, or a burst of first readers would steal E from
		// each other's unfinished fills.)
		d.setOwner(t.core)
	default:
		d.sharers.set(t.core)
	}
	t.scheduleServe()
}

// exclRecord takes ownership (after the memory fetch, when one was
// needed), then waits out the home-side hold.
func (t *txn) exclRecord() {
	t.le.dir.setOwner(t.core)
	t.scheduleServe()
}

// scheduleServe schedules serve after the home-side hold and keeps its key,
// against which the line's release tells arrived waiters from the rest.
func (t *txn) scheduleServe() {
	eng := t.s.eng
	t.state = stepServe
	t.key = eng.Reserve()
	eng.ScheduleReserved(eng.Now()+t.hold, t.key, t.step)
}

// serve is the serialization point: sample, and for exclusive grants apply
// the update decided at decide time (the value cannot have changed while
// the line was held). Grant state and data source are captured before
// releasing the line, since other transactions may mutate directory state
// while the reply is in flight.
func (t *txn) serve() {
	s, d := t.s, &t.le.dir
	word := &t.le.words[wordIdx(t.addr)]
	old := *word
	grant := Shared
	switch {
	case t.f != nil:
		*word = t.rmwNew
		grant = Modified
	case t.noWriteRMW:
		grant = Invalid // value-only reply, nothing installed
	case d.owner() == t.core:
		grant = Exclusive
	}
	src := t.home
	if t.fwdSrc >= 0 {
		src = t.fwdSrc
	}
	// The home releases once the reply (and any invalidations) are issued;
	// the requester pays the reply flight and, for writes, the farthest
	// invalidation-ack round trip, whichever is longer. Ownership grants
	// mark the line settling until then. A reply that installs a copy
	// joins the requester's in-flight list, where invalidations from here
	// on mark it stale.
	if grant != Invalid {
		t.stale = false
		c := &s.l1[t.core]
		c.mshr = append(c.mshr, t)
	}
	wait := sim.Time(s.mesh.Latency(src, t.core)) + s.p.L1RT
	if t.ackWait > wait {
		wait = t.ackWait
	}
	if grant == Modified || grant == Exclusive {
		d.settleAt = s.eng.Now() + wait
	}
	d.lock.release(s, t.key)
	t.old, t.grant = old, grant
	// The reply resumes the requester after the flight (and ack) wait.
	s.eng.Schedule(wait, t.fin)
}

// startFetch begins a memory fetch: charge a trip from home to a memory
// controller and the off-chip round trip; the controller port is a
// bandwidth-limited resource. The added hold accumulates into t.hold and
// the chain resumes at next.
func (t *txn) startFetch(next txnStep) {
	s := t.s
	s.Stats.MemFetches++
	ci, cnode := s.mesh.ControllerFor(t.line)
	t.fetchMC = ci
	t.fetchLat = sim.Time(2 * s.mesh.Latency(t.home, cnode))
	t.next = next
	t.state = stepFetchOcc
	// A port's waiters join in the order they call acquire, so each
	// joins at the current cycle behind all before it.
	t.at, t.key = s.eng.Now(), ^uint64(0)
	s.mc[ci].acquire(t)
}

// invIssueOccupancy is how long the home is busy issuing ninv
// invalidations: serial unicast for the plain directory, per-level flit
// replication with the Baseline+ virtual-tree multicast [22].
func (s *System) invIssueOccupancy(ninv int) sim.Time {
	s.Stats.Invalidations += uint64(ninv)
	if s.p.TreeBroadcast {
		return sim.Time(2 * log2ceil(ninv+1))
	}
	return sim.Time(2 * ninv)
}

// invAckLatency is the requester-visible latency until all invalidation
// acks arrive, with maxHops the farthest target. The tree combines acks in
// the network on the way back.
func (s *System) invAckLatency(maxHops, ninv int) sim.Time {
	rtt := sim.Time(2 * maxHops * int(s.mesh.HopLatency()))
	if rtt == 0 {
		rtt = sim.Time(2 * s.mesh.HopLatency())
	}
	if s.p.TreeBroadcast {
		return rtt/2 + sim.Time(maxHops) + sim.Time(2*log2ceil(ninv+1))
	}
	return rtt
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// invalidateL1 removes line from core's L1, marks core's fills of it in
// flight stale, and wakes any spinners on it.
func (s *System) invalidateL1(core int, line uint64) {
	c := &s.l1[core]
	for _, t := range c.mshr {
		if t.line == line {
			t.stale = true
		}
	}
	set := s.set(core, line)
	for i := range set {
		if set[i].holds(line) && set[i].state() != Invalid {
			set[i].setState(Invalid)
			break
		}
	}
	// The invalidation message takes one hop-ish to arrive; the spinner
	// notices on its next local probe.
	c.wakeSpinners(line, sim.Time(s.mesh.HopLatency())+s.p.L1RT)
}

// fill installs line into core's L1 in the given state, evicting the LRU
// way if the set is full.
func (s *System) fill(core int, line uint64, st State) {
	set := s.set(core, line)
	// Prefer the slot already holding this line (an upgrade must replace
	// its own copy, or the set ends up with the line in two ways), then
	// any invalid slot: an invalidated way before a never-filled one,
	// since never-filled ways come last.
	slot := -1
	for i := range set {
		if set[i].holds(line) {
			slot = i
			break
		}
	}
	if slot < 0 {
		for i := range set {
			if set[i].state() == Invalid {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		// Evict LRU (last).
		slot = len(set) - 1
		s.evict(core, set[slot].line())
	}
	copy(set[1:slot+1], set[0:slot])
	set[0] = makeSlot(line, st)
}

// evict performs directory bookkeeping for a line displaced from core's L1.
// Dirty data "returns" to the home L2. This is modeled as instantaneous
// background traffic: eviction writebacks are off the critical path of the
// access that triggered them.
func (s *System) evict(core int, line uint64) {
	s.Stats.Evictions++
	d := &s.lines.fetch(line).dir
	if d.owner() == core {
		d.setOwner(-1)
		d.inL2 = true
	}
	d.sharers.clear(core)
	s.l1[core].wakeSpinners(line, s.p.L1RT)
}

// Poke sets a word without timing or coherence effects, for initializing
// workload data. The line is marked present in L2 so later reads are not
// charged cold off-chip misses unless coldMiss is desired (use PokeCold).
func (s *System) Poke(addr, val uint64) {
	le := s.lines.fetch(Line(addr))
	le.words[wordIdx(addr)] = val
	le.dir.inL2 = true
}

// PokeCold sets a word without marking the line L2-resident, so the first
// access pays the off-chip fetch.
func (s *System) PokeCold(addr, val uint64) {
	s.lines.fetch(Line(addr)).words[wordIdx(addr)] = val
}

// Peek returns a word's current value without timing effects.
func (s *System) Peek(addr uint64) uint64 { return s.wordAt(addr) }

// L1State returns core's current L1 state for the line holding addr
// (Invalid if absent), for tests.
func (s *System) L1State(core int, addr uint64) State {
	line := Line(addr)
	for _, sl := range s.set(core, line) {
		if sl.holds(line) {
			return sl.state()
		}
	}
	return Invalid
}
