package bmem

import "wisync/internal/wireless"

// This file holds the Broadcast Memory's workload-facing operations. Each
// takes a completion callback that runs at the cycle the operation
// completes. Protection and addressing faults are reported synchronously,
// before any simulated time elapses; a fault that develops mid-operation —
// an entry freed under a spinning task — is a death of the simulated
// program, and panics.

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

// LoadAsync reads the 64-bit entry at addr from node's local replica; then
// receives the value one local round trip later.
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

// StoreAsync broadcasts val to addr in every replica; then runs when the
// write commits (all replicas updated), with WCB set. The MAC retries
// through collisions; on the ideal channel without faults a store cannot
// fail, only take longer. Under a lossy channel or a fault plan the
// broadcast can fail permanently (retry budget exhausted, transceiver
// outage): WCB then honestly reads false — software that needs the write
// checks WCB and reissues.
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

// BulkLoadAsync reads four consecutive entries starting at addr (Section
// 3.2). A single BM access burst is charged: RT plus one cycle per extra
// word; then receives the four values.
func (b *BM) BulkLoadAsync(node int, pid uint16, addr uint32, then func([4]uint64)) error {
	for i := uint32(0); i < 4; i++ {
		if err := b.check(node, pid, addr+i); err != nil {
			return err
		}
	}
	b.Stats.Loads += 4
	b.eng.SleepThen(b.p.RT+3, func() {
		var out [4]uint64
		for i := uint32(0); i < 4; i++ {
			out[i] = b.entries[addr+i].val
		}
		then(out)
	})
	return nil
}

// BulkStoreAsync broadcasts four words to consecutive addresses starting at
// addr in one 15-cycle wireless message (Section 4.1); then runs at the
// commit, with WCB set.
func (b *BM) BulkStoreAsync(node int, pid uint16, addr uint32, vals [4]uint64, then func()) error {
	for i := uint32(0); i < 4; i++ {
		if err := b.check(node, pid, addr+i); err != nil {
			return err
		}
	}
	b.Stats.Stores += 4
	b.wcb[node] = false
	m := wireless.Msg{Src: node, Addr: addr, Val: vals[0], Kind: wireless.KindBulk, PID: pid}
	copy(m.BulkVals[:], vals[1:])
	b.net.SendAsync(m, nil, func(committed bool) {
		b.wcb[node] = committed
		then()
	})
	return nil
}

// RMWAsync performs one hardware read-modify-write attempt at addr: read
// the local replica, apply f in the pipeline, and broadcast the result. f
// returns the new value and whether to perform the write; a CAS whose
// comparison fails returns false and broadcasts nothing (the failure is
// decided atomically on the read). then receives the value read and
// ok=true if the instruction executed atomically (AFB clear). ok=false
// means a remote commit to addr landed inside the atomicity window: AFB is
// set, nothing was written, and software must retry (Figure 4(a)).
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
	// ran/denied track completion: the operation completed iff it was
	// applied at a commit or denied at a probe.
	ran    bool
	denied bool

	submitFn func()
	doneFn   func(bool)
}

func (c *rmwGrantCont) op(cur uint64) (uint64, bool) {
	c.old = cur
	nv, do := c.f(cur)
	if c.b.probing {
		// Grant-time probe: a denied write (failed compare) is a
		// completed instruction — the decision is atomic on the committed
		// value the probe observed.
		c.denied = !do
	} else {
		c.ran = true // commit application: the write happened chip-wide
	}
	return nv, do
}

func (c *rmwGrantCont) submit() { c.b.net.SendAsync(c.msg, nil, c.doneFn) }

// done completes the RMW. Neither ran nor denied is set when the broadcast
// failed permanently — retry budget exhausted or a fault-injected outage —
// and old would be stale; software must retry, exactly like an AFB
// failure.
func (c *rmwGrantCont) done(bool) {
	b, node, old, then := c.b, c.node, c.old, c.then
	ok := c.ran || c.denied
	c.f, c.then = nil, nil
	b.rmwFree = append(b.rmwFree, c)
	b.wcb[node] = ok
	then(old, ok)
}

// rmwAtGrantAsync is the default RMW path: the operation rides in the
// message and every replica applies it to the committed value at commit
// time. The old value delivered is the committed value the operation
// observed; atomicity cannot fail, only the broadcast.
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
		// program faults.
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
	b.watch(sp.addr, sp)
}

// SpinUntilAsync polls addr in the local replica until cond holds, waiting
// between polls for a commit (or tone toggle) to touch addr, the way a core
// spins on its local BM: no network traffic at all. then receives the
// satisfying value.
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

// spinHerd is one commit's wake of a word's spinners, carried as two
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
	ws   []*bmSpin

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
	for _, sp := range h.ws {
		if err := b.check(sp.node, sp.pid, h.addr); err != nil {
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
	for i, sp := range ws {
		ws[i] = nil
		b.eng.RunAhead(len(ws) - 1 - i)
		sp.onVal(b.entries[h.addr].val)
	}
	h.ws = ws[:0]
	b.herdFree = append(b.herdFree, h)
}
