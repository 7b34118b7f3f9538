package bmem

import "wisync/internal/wireless"

// This file is the continuation-form face of the Broadcast Memory: each
// blocking operation in ops.go has an async variant taking a completion
// callback instead of a parked process. Protection and addressing faults
// are still reported synchronously (the blocking forms check before any
// simulated time elapses); a fault that develops mid-operation — an entry
// freed under a spinning task — is a death of the simulated program, like
// the blocking form's must(), and panics. Both faces consume event
// sequence numbers at identical points, so they are interchangeable
// without moving a simulated result.

// loadCont is a recycled load-delivery continuation: the "sleep the local
// round trip, then hand over the replica's value" step of LoadAsync, which
// would otherwise capture addr and then in a fresh closure on the
// spin-probe hot path. The value is sampled at fire time, exactly as the
// closure form did.
type loadCont struct {
	b    *BM
	addr uint32
	then func(uint64)
	fn   func() // cached method value of run
}

func (b *BM) newLoadCont(addr uint32, then func(uint64)) *loadCont {
	var c *loadCont
	if n := len(b.loadFree); n > 0 {
		c = b.loadFree[n-1]
		b.loadFree = b.loadFree[:n-1]
		b.eng.StepPoolHit()
	} else {
		c = &loadCont{b: b}
		c.fn = c.run
		b.eng.StepPoolMiss()
	}
	c.addr, c.then = addr, then
	return c
}

func (c *loadCont) run() {
	b, addr, then := c.b, c.addr, c.then
	c.then = nil
	b.loadFree = append(b.loadFree, c)
	then(b.entries[addr].val)
}

// LoadAsync is the continuation mirror of Load.
func (b *BM) LoadAsync(node int, pid uint16, addr uint32, then func(uint64)) error {
	if err := b.check(node, pid, addr); err != nil {
		return err
	}
	b.Stats.Loads++
	b.eng.SleepThen(b.p.RT, b.newLoadCont(addr, then).fn)
	return nil
}

// storeCont is a recycled store-commit continuation: StoreAsync's "set the
// WCB, then run the user continuation" completion.
type storeCont struct {
	b    *BM
	node int
	then func()
	fn   func(bool) // cached method value of run
}

func (c *storeCont) run(committed bool) {
	b, node, then := c.b, c.node, c.then
	c.then = nil
	b.storeFree = append(b.storeFree, c)
	b.wcb[node] = committed
	then()
}

// StoreAsync is the continuation mirror of Store: then runs at the commit
// cycle, with WCB set.
func (b *BM) StoreAsync(node int, pid uint16, addr uint32, val uint64, then func()) error {
	if err := b.check(node, pid, addr); err != nil {
		return err
	}
	b.Stats.Stores++
	b.wcb[node] = false
	var c *storeCont
	if n := len(b.storeFree); n > 0 {
		c = b.storeFree[n-1]
		b.storeFree = b.storeFree[:n-1]
		b.eng.StepPoolHit()
	} else {
		c = &storeCont{b: b}
		c.fn = c.run
		b.eng.StepPoolMiss()
	}
	c.node, c.then = node, then
	b.net.SendAsync(wireless.Msg{Src: node, Addr: addr, Val: val, Kind: wireless.KindStore, PID: pid}, nil, c.fn)
	return nil
}

// RMWAsync is the continuation mirror of RMW: then receives the value read
// and whether the instruction executed atomically, at the cycle RMW would
// have returned.
func (b *BM) RMWAsync(node int, pid uint16, addr uint32, f func(uint64) (uint64, bool), then func(old uint64, ok bool)) error {
	if err := b.check(node, pid, addr); err != nil {
		return err
	}
	b.Stats.RMWs++
	if !b.p.RMWEarlyRead {
		return b.rmwAtGrantAsync(node, pid, addr, f, then)
	}
	b.wcb[node] = false
	b.afb[node] = false
	pr := &b.pending[node]
	*pr = pendingRMW{active: true, addr: addr}

	// Local read: the atomicity window opens here.
	b.eng.SleepThen(b.p.RT, func() {
		old := b.entries[addr].val
		if pr.aborted {
			// A conflicting commit landed during the local read.
			b.wcb[node] = true
			then(old, false)
			return
		}
		newVal, doWrite := f(old)
		if !doWrite {
			pr.active = false
			b.wcb[node] = true
			then(old, true)
			return
		}
		b.net.SendAsync(wireless.Msg{Src: node, Addr: addr, Val: newVal, Kind: wireless.KindRMW, PID: pid}, &pr.tok,
			func(committed bool) {
				b.wcb[node] = true
				if !committed {
					// Withdrawn: AFB was set by the conflicting commit.
					then(old, false)
					return
				}
				pr.active = false
				then(old, true)
			})
	})
	return nil
}

// rmwGrantCont is a recycled grant-time RMW chain: the pipeline-read
// delay, the channel submission with the old-value-capturing Op wrapper,
// and the commit completion of rmwAtGrantAsync as one pooled struct. It
// stays out of the pool from issue to commit — concurrent RMWs from other
// nodes draw their own structs — and its msg carries the cached Op method
// value, so a steady-state RMW storm allocates nothing.
type rmwGrantCont struct {
	b    *BM
	node int
	old  uint64
	f    func(uint64) (uint64, bool)
	then func(old uint64, ok bool)
	msg  wireless.Msg
	// ran/denied mirror rmwAtGrant's completion tracking: the operation
	// completed iff it was applied at a commit or denied at a probe.
	ran    bool
	denied bool

	submitFn func()
	doneFn   func(bool)
}

func (c *rmwGrantCont) op(cur uint64) (uint64, bool) {
	c.old = cur
	nv, do := c.f(cur)
	if c.b.probing {
		c.denied = !do
	} else {
		c.ran = true
	}
	return nv, do
}

func (c *rmwGrantCont) submit() { c.b.net.SendAsync(c.msg, nil, c.doneFn) }

func (c *rmwGrantCont) done(bool) {
	b, node, old, then := c.b, c.node, c.old, c.then
	ok := c.ran || c.denied
	c.f, c.then = nil, nil
	b.rmwFree = append(b.rmwFree, c)
	b.wcb[node] = ok
	then(old, ok)
}

// rmwAtGrantAsync mirrors rmwAtGrant: the pipeline read delay and the
// channel submission are already continuations there; here the completion
// is one too.
func (b *BM) rmwAtGrantAsync(node int, pid uint16, addr uint32, f func(uint64) (uint64, bool), then func(old uint64, ok bool)) error {
	b.wcb[node] = false
	b.afb[node] = false
	var c *rmwGrantCont
	if n := len(b.rmwFree); n > 0 {
		c = b.rmwFree[n-1]
		b.rmwFree = b.rmwFree[:n-1]
		b.eng.StepPoolHit()
	} else {
		c = &rmwGrantCont{b: b}
		c.submitFn = c.submit
		c.doneFn = c.done
		c.msg.Op = c.op
		b.eng.StepPoolMiss()
	}
	c.node, c.f, c.then = node, f, then
	c.ran, c.denied = false, false
	c.msg.Src, c.msg.Addr, c.msg.Kind, c.msg.PID = node, addr, wireless.KindRMW, pid
	// The instruction still reads the local BM into the pipeline (RT),
	// then contends for the channel.
	b.eng.SleepThen(b.p.RT, c.submitFn)
	return nil
}

// bmSpin is a recycled spin loop: the onVal/respin continuation pair of
// SpinUntilAsync as struct fields and cached method values. Spins from
// different nodes overlap, so the structs pool on the BM; a spin returns
// to the pool the moment its condition is satisfied.
type bmSpin struct {
	b    *BM
	node int
	pid  uint16
	addr uint32
	cond func(uint64) bool
	then func(uint64)

	onValFn  func(uint64)
	respinFn func()
}

func (sp *bmSpin) respin() {
	if err := sp.b.LoadAsync(sp.node, sp.pid, sp.addr, sp.onValFn); err != nil {
		// The entry was freed or re-tagged mid-spin: the simulated
		// program faults, as the blocking form's must() would.
		panic(err)
	}
}

func (sp *bmSpin) onVal(v uint64) {
	b := sp.b
	if sp.cond(v) {
		then := sp.then
		sp.cond, sp.then = nil, nil
		b.spinFree = append(b.spinFree, sp)
		then(v)
		return
	}
	b.watch(sp.addr, watcher{sp: sp})
}

// SpinUntilAsync is the continuation mirror of SpinUntil: local-replica
// polls between commits, no network traffic. then receives the satisfying
// value.
func (b *BM) SpinUntilAsync(node int, pid uint16, addr uint32, cond func(uint64) bool, then func(uint64)) error {
	if err := b.check(node, pid, addr); err != nil {
		return err
	}
	var sp *bmSpin
	if n := len(b.spinFree); n > 0 {
		sp = b.spinFree[n-1]
		b.spinFree = b.spinFree[:n-1]
		b.eng.StepPoolHit()
	} else {
		sp = &bmSpin{b: b}
		sp.onValFn = sp.onVal
		sp.respinFn = sp.respin
		b.eng.StepPoolMiss()
	}
	sp.node, sp.pid, sp.addr, sp.cond, sp.then = node, pid, addr, cond, then
	sp.respin()
	return nil
}

// spinHerd is one commit's wake of a word's task spinners, carried as two
// engine runs (see the sim package comment) instead of two events per
// spinner. Run 1, poll, fires RT after the commit: each member issues its
// local replica load, as respin and LoadAsync would. Run 2, deliver, fires
// RT later: each member reads the replica and tests its condition, as the
// load's delivery and onVal would. Members run in FIFO order at the
// sequence position of the first member's event, so simulated results are
// those of one event per member. Herds from successive commits to one word
// can be in flight together, so they pool on the BM.
type spinHerd struct {
	b    *BM
	addr uint32
	ws   []watcher

	pollFn    func()
	deliverFn func()
}

func (b *BM) newHerd(addr uint32) *spinHerd {
	var h *spinHerd
	if n := len(b.herdFree); n > 0 {
		h = b.herdFree[n-1]
		b.herdFree = b.herdFree[:n-1]
		b.eng.StepPoolHit()
	} else {
		h = &spinHerd{b: b}
		h.pollFn = h.poll
		h.deliverFn = h.deliver
		b.eng.StepPoolMiss()
	}
	h.addr = addr
	return h
}

// poll is run 1. A member's load schedules nothing of its own — the herd
// carries every member's delivery in run 2 — so no member can reach a fast
// path here and RunAhead is not needed.
func (h *spinHerd) poll() {
	b := h.b
	for _, w := range h.ws {
		if err := b.check(w.sp.node, w.sp.pid, h.addr); err != nil {
			// The entry was freed or re-tagged mid-spin: the simulated
			// program faults, as respin would.
			panic(err)
		}
		b.Stats.Loads++
	}
	b.eng.SleepThen(b.p.RT, h.deliverFn)
}

// deliver is run 2. A satisfied member's continuation runs inline; an
// unsatisfied member goes back on the spin list.
func (h *spinHerd) deliver() {
	b, ws := h.b, h.ws
	for i, w := range ws {
		ws[i] = watcher{}
		b.eng.RunAhead(len(ws) - 1 - i)
		w.sp.onVal(b.entries[h.addr].val)
	}
	h.ws = ws[:0]
	b.herdFree = append(b.herdFree, h)
}
