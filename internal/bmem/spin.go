package bmem

import "wisync/internal/sim"

// This file holds the Broadcast Memory's spin loops: SpinUntilAsync, the
// per-word lists of parked spinners, and the herd that carries a commit's
// wake of them.

// bmSpin is a recycled spin loop: one core spinning on its local replica
// of a word until cond holds. Spins from different nodes overlap, so the
// structs pool on the BM; a spin returns to the pool the moment its
// condition is satisfied.
type bmSpin struct {
	b    *BM
	node int
	pid  uint16
	addr uint32
	cond sim.Cond
	then func(uint64)
	// next links the spin to the one after it in its cohort.
	next *bmSpin

	onValFn func(uint64)
}

// onVal is the spin's first poll delivered: release or park.
func (sp *bmSpin) onVal(v uint64) {
	if sp.cond.Holds(v) {
		sp.release(v)
		return
	}
	sp.b.park(sp)
}

// clear drops the continuation of a spin a cut run left parked.
func (sp *bmSpin) clear() { sp.then, sp.next = nil, nil }

// release returns the spin to the pool and runs its continuation.
func (sp *bmSpin) release(v uint64) {
	b, then := sp.b, sp.then
	sp.then, sp.next = nil, nil
	b.spins.Put(sp)
	then(v)
}

// SpinUntilAsync polls addr in the local replica until cond holds, waiting
// between polls for a commit (or tone toggle) to touch addr, the way a core
// spins on its local BM: no network traffic at all. then receives the
// satisfying value.
func (b *BM) SpinUntilAsync(node int, pid uint16, addr uint32, cond sim.Cond, then func(uint64)) error {
	if err := b.check(node, pid, addr); err != nil {
		return err
	}
	sp := b.spins.Take(b.eng)
	if sp == nil {
		sp = b.spins.Made(&bmSpin{b: b})
		sp.onValFn = sp.onVal
	}
	sp.node, sp.pid, sp.addr, sp.cond, sp.then = node, pid, addr, cond, then
	return b.LoadAsync(node, pid, addr, sp.onValFn)
}

// cohort is a run of consecutive parked spinners on one word with equal
// condition and PID, linked through bmSpin.next in FIFO order. One test of
// cond decides every member, and one protection check covers them all.
type cohort struct {
	cond       sim.Cond
	pid        uint16
	n          int
	head, tail *bmSpin
	next       *cohort
}

// spinList is one word's parked spinners: its cohorts in FIFO order, each
// differing in condition or PID from the one before it. All replicas
// update together, so one list per word suffices.
type spinList struct{ head, tail *cohort }

// park appends sp to its word's spin list, as a cohort of one that
// repark merges into the tail cohort when that one is equal.
func (b *BM) park(sp *bmSpin) {
	l := b.watchers[sp.addr]
	if l == nil {
		if k := len(b.listFree); k > 0 {
			l = b.listFree[k-1]
			b.listFree = b.listFree[:k-1]
		} else {
			l = new(spinList)
		}
		b.watchers[sp.addr] = l
	}
	c := b.newCohort()
	c.cond, c.pid, c.n, c.head, c.tail = sp.cond, sp.pid, 1, sp, sp
	b.repark(l, c)
}

// repark splices cohort c onto l in O(1), merged into the tail cohort
// when the two have the same condition and PID.
func (b *BM) repark(l *spinList, c *cohort) {
	if t := l.tail; t != nil && t.cond == c.cond && t.pid == c.pid {
		t.tail.next = c.head
		t.tail = c.tail
		t.n += c.n
		b.freeCohort(c)
		return
	}
	l.push(c)
}

func (l *spinList) push(c *cohort) {
	c.next = nil
	if l.tail == nil {
		l.head = c
	} else {
		l.tail.next = c
	}
	l.tail = c
}

func (b *BM) newCohort() *cohort {
	if n := len(b.cohortFree); n > 0 {
		c := b.cohortFree[n-1]
		b.cohortFree = b.cohortFree[:n-1]
		return c
	}
	return new(cohort)
}

func (b *BM) freeCohort(c *cohort) {
	*c = cohort{}
	b.cohortFree = append(b.cohortFree, c)
}

// freeCohorts frees the cohorts chained from c.
func (b *BM) freeCohorts(c *cohort) {
	for c != nil {
		next := c.next
		b.freeCohort(c)
		c = next
	}
}

// clear frees the cohorts of a herd a cut run left in flight.
func (h *spinHerd) clear() {
	h.b.freeCohorts(h.cohorts)
	h.cohorts = nil
}

// wakeWatchers wakes addr's spinners: each observes the new value on its
// next local BM poll, RT from now. Their cohorts move together into a spin
// herd, which costs two events however many there are.
func (b *BM) wakeWatchers(addr uint32) {
	l := b.watchers[addr]
	if l == nil || l.head == nil {
		return
	}
	h := b.newHerd(addr)
	h.cohorts = l.head
	l.head, l.tail = nil, nil
	b.eng.Schedule(b.p.RT, h.pollFn)
}

// spinHerd is one commit's wake of a word's spinners, carried as two
// engine runs (see the sim package comment) instead of two events per
// spinner. Run 1, poll, fires RT after the commit: each member issues its
// local replica load. Run 2, deliver, fires RT later: each member reads
// the replica and tests its condition. Both visit cohorts, not members, so
// a commit's work is O(cohorts + released spinners). Members run in FIFO
// order at the sequence position of the first member's event, so simulated
// results are those of one event per member. Herds from successive commits
// to one word can be in flight together, so they pool on the BM.
type spinHerd struct {
	b       *BM
	addr    uint32
	cohorts *cohort
	n       int // members, counted by poll

	pollFn    func()
	deliverFn func()
}

func (b *BM) newHerd(addr uint32) *spinHerd {
	h := b.herds.Take(b.eng)
	if h == nil {
		h = b.herds.Made(&spinHerd{b: b})
		h.pollFn = h.poll
		h.deliverFn = h.deliver
	}
	h.addr = addr
	return h
}

// poll is run 1: every member's replica load, a protection check and a
// load count per cohort. A member's load schedules nothing of its own —
// the herd carries every member's delivery in run 2 — so no member can
// reach a fast path here and RunAhead is not needed.
func (h *spinHerd) poll() {
	b := h.b
	h.n = 0
	for c := h.cohorts; c != nil; c = c.next {
		if err := b.check(c.head.node, c.pid, h.addr); err != nil {
			// The entry was freed or re-tagged mid-spin: the simulated
			// program faults.
			panic(err)
		}
		b.Stats.Loads += uint64(c.n)
		h.n += c.n
	}
	b.eng.SleepThen(b.p.RT, h.deliverFn)
}

// deliver is run 2. Each cohort's condition is tested once: a satisfied
// cohort's members run inline in FIFO order, each after RunAhead counts
// the herd's later members; an unsatisfied cohort goes back on the word's
// list behind the spinners that parked since the commit.
func (h *spinHerd) deliver() {
	b := h.b
	l := b.watchers[h.addr]
	left := h.n
	for c := h.cohorts; c != nil; {
		next := c.next
		v := b.entries[h.addr].val
		if !c.cond.Holds(v) {
			left -= c.n
			b.repark(l, c)
			c = next
			continue
		}
		for sp := c.head; sp != nil; {
			nx := sp.next
			left--
			b.eng.RunAhead(left)
			sp.release(v)
			sp = nx
		}
		b.freeCohort(c)
		c = next
	}
	b.eng.RunAhead(0)
	h.cohorts = nil
	b.herds.Put(h)
}
