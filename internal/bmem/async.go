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
	c := b.loads.Take(b.eng)
	if c == nil {
		c = b.loads.Made(&loadCont{b: b})
		c.fn = c.run
	}
	c.addr, c.then = addr, then
	return c
}

// clear drops the continuation of a load a cut run left pending.
func (c *loadCont) clear() { c.then = nil }

func (c *loadCont) run() {
	b, addr, then := c.b, c.addr, c.then
	c.then = nil
	b.loads.Put(c)
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

// clear drops the continuation of a store a cut run left pending.
func (c *storeCont) clear() { c.then = nil }

func (c *storeCont) run(committed bool) {
	b, node, then := c.b, c.node, c.then
	c.then = nil
	b.stores.Put(c)
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
	c := b.stores.Take(b.eng)
	if c == nil {
		c = b.stores.Made(&storeCont{b: b})
		c.fn = c.run
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
	if !pr.active {
		b.activeRMWs++
	}
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
			b.closeRMW(pr)
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
				b.closeRMW(pr)
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

// clear drops the operation and continuation of an RMW a cut run left in
// flight.
func (c *rmwGrantCont) clear() { c.f, c.then = nil, nil }

func (c *rmwGrantCont) submit() { c.b.net.SendAsync(c.msg, nil, c.doneFn) }

// done completes the RMW. Neither ran nor denied is set when the broadcast
// failed permanently — retry budget exhausted or a fault-injected outage —
// and old would be stale; software must retry, exactly like an AFB
// failure.
func (c *rmwGrantCont) done(bool) {
	b, node, old, then := c.b, c.node, c.old, c.then
	ok := c.ran || c.denied
	c.f, c.then = nil, nil
	b.rmws.Put(c)
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
	c := b.rmws.Take(b.eng)
	if c == nil {
		c = b.rmws.Made(&rmwGrantCont{b: b})
		c.submitFn = c.submit
		c.doneFn = c.done
		c.msg.Op = c.op
	}
	c.node, c.f, c.then = node, f, then
	c.ran, c.denied = false, false
	c.msg.Src, c.msg.Addr, c.msg.Kind, c.msg.PID = node, addr, wireless.KindRMW, pid
	// The instruction still reads the local BM into the pipeline (RT),
	// then contends for the channel.
	b.eng.SleepThen(b.p.RT, c.submitFn)
	return nil
}
