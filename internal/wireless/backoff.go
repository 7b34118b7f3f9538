package wireless

import (
	"cmp"
	"slices"

	"wisync/internal/sim"
)

// backoffMAC is the paper's arbitration scheme (Section 5.3) and the
// default MAC: carrier sensing with busy deferral (per Params.Defer),
// slot-level collision detection, and exponential backoff (per
// Params.Backoff) on collision. The code is the pre-refactor Network
// arbitration moved behind the MAC interface unchanged — the golden
// conformance suite and the pre-refactor trace tests pin it bit-for-bit.
type backoffMAC struct {
	n *Network
	// pending lists the future contention slots whose arbitration event
	// is scheduled, in no particular order; each carries the requests
	// contending in it and its own index here. A 256-core CAS point
	// holds about a hundred at a time (up to about 150), so enqueue finds
	// a slot by its cycle in byCycle rather than by a scan: entry
	// slot&cycleMask holds the pending slot of that cycle. Every pending
	// slot lies at most a Bulk frame, or CollisionCycles plus the largest
	// backoff window, ahead of now, and the table is longer than that, so
	// two pending slots never share an entry. Where a configuration's
	// window outgrows the table (maxCycleTable), a slot that finds its
	// entry taken stays out of it and is found by a scan; spilled counts
	// them.
	pending   []*arbCont
	byCycle   []*arbCont
	cycleMask sim.Time
	spilled   int
	// waitq holds busy-deferred senders under DeferFIFO.
	waitq   reqFIFO
	backoff []int // per-node persistent exponent (BackoffPersistent)
	// sharedExp is the chip-wide contention exponent for
	// BackoffAdaptive: every node observes the same channel, so the
	// estimate is global (Section 5.3).
	sharedExp int
	stats     MACStats
	// releaseHeadFn is the cached method value scheduleRelease schedules;
	// slots recycles contention slots together with their request
	// arrays, the slots a cut run left pending included (init). A free
	// slot is taken whatever its array's size, so an array regrows when
	// its slot gets more requests than it has held: a point run again
	// regrows arrays that other slots grew the time before, and a point
	// run a third time allocates nothing in the MAC.
	releaseHeadFn func()
	slots         sim.FreeList[arbCont]
}

// arbCont is one pending contention slot: the cycle it resolves at, the
// requests contending in it, and its arbitration event, whose cached
// method value saves a fresh closure per contention cycle.
type arbCont struct {
	m    *backoffMAC
	slot sim.Time
	idx  int // position in m.pending
	reqs []*request
	fn   func() // cached method value of run
}

func (c *arbCont) run() { c.m.arbitrate(c) }

// clear empties the slot's request array, keeping it.
func (c *arbCont) clear() {
	clear(c.reqs)
	c.reqs = c.reqs[:0]
}

// maxCycleTable bounds byCycle; 1024 entries cover 256 nodes' default
// backoff window (2^9 cycles).
const maxCycleTable = 1024

// init makes m the backoff MAC of n. It keeps the arrays and contention
// slots of m's earlier run; slots still pending when that run stopped are
// taken back with their request arrays, emptied.
func (m *backoffMAC) init(n *Network) {
	window := sim.Time(1) << max(0, min(n.p.MaxBackoffExp, 30))
	if n.p.ConstantBackoffWindow > 0 {
		window = sim.Time(n.p.ConstantBackoffWindow)
	}
	horizon := max(n.p.MsgCycles, n.p.BulkCycles, n.p.CollisionCycles+window)
	size := 1
	for sim.Time(size) <= horizon && size < maxCycleTable {
		size <<= 1
	}
	clear(m.pending)
	m.waitq.reset()
	*m = backoffMAC{
		n:             n,
		pending:       m.pending[:0],
		byCycle:       sim.Zeroed(m.byCycle, size),
		cycleMask:     sim.Time(size - 1),
		waitq:         m.waitq,
		backoff:       sim.Zeroed(m.backoff, n.nodes),
		releaseHeadFn: m.releaseHeadFn,
		slots:         m.slots.Reclaimed((*arbCont).clear),
	}
	if m.releaseHeadFn == nil {
		m.releaseHeadFn = m.releaseHead
	}
}

// slotAt returns the pending contention slot at cycle slot, or nil.
func (m *backoffMAC) slotAt(slot sim.Time) *arbCont {
	if c := m.byCycle[slot&m.cycleMask]; c != nil && c.slot == slot {
		return c
	}
	if m.spilled > 0 {
		for _, c := range m.pending {
			if c.slot == slot {
				return c
			}
		}
	}
	return nil
}

// unlist removes contention slot c from pending and byCycle.
func (m *backoffMAC) unlist(c *arbCont) {
	last := len(m.pending) - 1
	moved := m.pending[last]
	m.pending[c.idx] = moved
	moved.idx = c.idx
	m.pending[last] = nil
	m.pending = m.pending[:last]
	if e := &m.byCycle[c.slot&m.cycleMask]; *e == c {
		*e = nil
	} else {
		m.spilled--
	}
}

// deferReq queues req behind the busy channel.
func (m *backoffMAC) deferReq(req *request) {
	req.queued = true
	m.waitq.push(req)
}

func (m *backoffMAC) Kind() MACKind { return MACBackoff }

// Submit routes a (re)transmission attempt: straight into the current slot
// when the channel is free, otherwise per the deferral policy.
func (m *backoffMAC) Submit(req *request) {
	n := m.n
	now := n.eng.Now()
	if n.busyUntil <= now {
		m.enqueue(req, now)
		return
	}
	if n.p.Defer == DeferFIFO {
		m.deferReq(req)
		return
	}
	m.enqueue(req, n.busyUntil)
}

// enqueue adds req to the contention slot at cycle slot, scheduling the
// slot's arbitration event if the slot is not pending yet.
func (m *backoffMAC) enqueue(req *request, slot sim.Time) {
	req.queued = true
	if c := m.slotAt(slot); c != nil {
		c.reqs = append(c.reqs, req)
		return
	}
	c := m.slots.Get()
	if c == nil {
		c = m.slots.Made(&arbCont{m: m})
		c.fn = c.run
	}
	c.slot = slot
	c.reqs = append(c.reqs, req)
	c.idx = len(m.pending)
	m.pending = append(m.pending, c)
	if e := &m.byCycle[slot&m.cycleMask]; *e == nil {
		*e = c
	} else {
		m.spilled++
	}
	m.n.eng.ScheduleAt(slot, sim.PrioLate, c.fn)
}

// arbitrate resolves contention slot c at the current cycle. It runs at
// PrioLate so every request registered during the cycle participates, and
// after commit deliveries (PrioNormal), so withdrawals triggered by a
// commit in the same cycle take effect first. The slot leaves the pending
// list first, so a sender restarted in this very cycle (GrantAborted)
// opens a new slot with an event of its own; c returns to the pool only
// once its requests have been resolved.
func (m *backoffMAC) arbitrate(c *arbCont) {
	m.unlist(c)
	m.resolve(c.slot, c.reqs)
	c.clear()
	m.slots.Put(c)
}

// resolve decides the contention slot at cycle slot among reqs: a single
// live request transmits, several collide and back off, and requests
// overtaken by a busy channel defer. reqs is scratch: resolve filters it
// in place.
func (m *backoffMAC) resolve(slot sim.Time, reqs []*request) {
	n := m.n
	live := reqs[:0]
	for _, r := range reqs {
		n.dequeued(r)
		if r.state != reqPending {
			continue
		}
		if n.inj != nil && n.inj.FailStopped(r.msg.Src, uint64(slot)) {
			// The sender's transceiver fail-stopped while the request was
			// waiting for this slot: it cannot drive the medium, so it is
			// excluded from contention and the send fails.
			n.failPending(r)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if slot < n.busyUntil {
		// The channel became busy after these requests were queued
		// (an earlier slot had a winner); defer them.
		for _, r := range live {
			if n.p.Defer == DeferFIFO {
				m.deferReq(r)
			} else {
				m.enqueue(r, n.busyUntil)
			}
		}
		return
	}
	if len(live) == 1 {
		n.transmit(live[0], slot)
		return
	}
	// Collision: detected cycle 2, channel free cycle 3. Every collider
	// drove the medium for those detection cycles; charge each the
	// corresponding fraction of its frame energy.
	n.Stats.Collisions++
	m.stats.Collisions++
	for _, r := range live {
		n.chargeCollision(r)
	}
	n.busyUntil = slot + n.p.CollisionCycles
	n.Stats.BusyCycles += n.p.CollisionCycles
	m.scheduleRelease(n.busyUntil)
	if m.sharedExp < n.p.MaxBackoffExp {
		m.sharedExp++
	}
	for _, r := range live {
		exp := 0
		switch n.p.Backoff {
		case BackoffPerMessage:
			r.attempts++
			exp = r.attempts
			if exp > n.p.MaxBackoffExp {
				exp = n.p.MaxBackoffExp
			}
		case BackoffAdaptive:
			exp = m.sharedExp
		default: // persistent (Section 5.3)
			src := r.msg.Src
			if m.backoff[src] < n.p.MaxBackoffExp {
				m.backoff[src]++
			}
			exp = m.backoff[src]
		}
		window := 1 << exp
		if n.p.ConstantBackoffWindow > 0 {
			window = n.p.ConstantBackoffWindow
		}
		wait := sim.Time(n.rng.Intn(window))
		m.enqueue(r, slot+n.p.CollisionCycles+wait)
	}
}

// Granted rewards a successful transmission: the winner's backoff exponent
// (or the shared contention estimate) decays.
func (m *backoffMAC) Granted(req *request) {
	m.stats.Grants++
	switch m.n.p.Backoff {
	case BackoffPersistent:
		if src := req.msg.Src; m.backoff[src] > 0 {
			m.backoff[src]--
		}
	case BackoffAdaptive:
		if m.sharedExp > 0 {
			m.sharedExp--
		}
	}
}

// GrantAborted: the channel is still free, so the next deferred sender
// restarts in this very slot.
func (m *backoffMAC) GrantAborted() { m.releaseHead() }

func (m *backoffMAC) TxScheduled(end sim.Time) { m.scheduleRelease(end) }

// scheduleRelease arranges for the oldest deferred sender to restart at the
// end of the current busy period. It is scheduled after same-cycle commit
// delivery (by sequence order) and before slot arbitration (by priority),
// so withdrawn requests are skipped and the released sender still contends
// with any new same-cycle arrivals.
func (m *backoffMAC) scheduleRelease(at sim.Time) {
	if m.n.p.Defer != DeferFIFO {
		return
	}
	m.n.eng.ScheduleAt(at, sim.PrioNormal, m.releaseHeadFn)
}

func (m *backoffMAC) releaseHead() {
	n := m.n
	if n.busyUntil > n.eng.Now() {
		return // a new busy period already started
	}
	for m.waitq.len() > 0 {
		head := m.waitq.pop()
		n.dequeued(head)
		if head.state != reqPending {
			continue // withdrawn while queued
		}
		if n.inj != nil && n.inj.FailStopped(head.msg.Src, uint64(n.eng.Now())) {
			n.failPending(head) // dead sender: excluded from contention
			continue
		}
		m.enqueue(head, n.eng.Now())
		return
	}
}

func (m *backoffMAC) Counters() MACStats { return m.stats }

// drain appends every queued request to out — busy-deferred and future
// contention slots alike — in deterministic order (FIFO queue first, then
// slots by cycle) for an adaptive mode switch. The emptied slots stay
// pending: their arbitration events fire as no-ops, and a later re-enqueue
// into such a slot reuses the pending event.
func (m *backoffMAC) drain(out []*request) []*request {
	for _, r := range m.waitq.live() {
		m.n.dequeued(r)
		if r.state == reqPending {
			out = append(out, r)
		}
	}
	m.waitq.reset()
	slices.SortFunc(m.pending, func(a, b *arbCont) int { return cmp.Compare(a.slot, b.slot) })
	for i, c := range m.pending {
		c.idx = i
		for _, r := range c.reqs {
			m.n.dequeued(r)
			if r.state == reqPending {
				out = append(out, r)
			}
		}
		c.clear()
	}
	return out
}
