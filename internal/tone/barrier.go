package tone

import (
	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// ToneStoreAsync is the tone_st instruction: node announces arrival at the
// barrier whose variable lives at addr (Section 4.2.2). It does not update
// the BM location. If this node's controller is already issuing a tone for
// addr, it simply stops (arrival registered); otherwise this node believes
// it is the first arriver and broadcasts the Tone-bit message on the Data
// channel. then runs at the cycle the arrival is architecturally visible.
// Faults are reported synchronously, before any simulated time elapses.
func (c *Controller) ToneStoreAsync(node int, pid uint16, addr uint32, then func()) error {
	if err := c.checkParticipant(node, pid, addr); err != nil {
		return err
	}
	if b := c.findActive(addr); b != nil {
		// Tone being issued locally: stop it (arrive).
		c.arrive(b, node)
		c.eng.SleepThen(1, then)
		return nil
	}
	// Not active: this node is (or ties for) the first arriver. Send the
	// init message; if another node's init commits first, ours is
	// withdrawn by the activation and our arrival is registered there.
	c.pending[node] = pendingInit{active: true, addr: addr, pid: pid}
	st := c.step(node)
	st.then = then
	st.send()
	return nil
}

// nodeStep is a node's recycled tone continuation: the completion of its
// tone_st init message, and its reissue. A node's thread has at most one
// init in flight,
// and initDone clears then before it hands control back, so one struct
// per node serves every episode without a closure.
type nodeStep struct {
	c    *Controller
	node int
	then func()

	initDoneFn func(bool)
	// sendFn is made on the first reissue: an ideal channel never needs it.
	sendFn func()
}

// step returns node's continuation, making it on first use.
func (c *Controller) step(node int) *nodeStep {
	if st := c.steps[node]; st != nil {
		c.eng.StepPoolHit()
		return st
	}
	c.eng.StepPoolMiss()
	st := &nodeStep{c: c, node: node}
	st.initDoneFn = st.initDone
	c.steps[node] = st
	return st
}

// send broadcasts the node's pending init message, unless an activation
// has registered the node's arrival since it was last sent.
func (st *nodeStep) send() {
	c := st.c
	pi := &c.pending[st.node]
	if !pi.active {
		st.initDone(false)
		return
	}
	c.net.SendAsync(wireless.Msg{
		Src: st.node, Addr: pi.addr, Kind: wireless.KindToneInit, PID: pi.pid,
	}, &pi.tok, st.initDoneFn)
}

func (st *nodeStep) initDone(committed bool) {
	c := st.c
	pi := &c.pending[st.node]
	if !committed && pi.active && !c.net.NodeFailStopped(st.node) {
		// The init failed delivery: an activation clears active before
		// it cancels a withdrawn init. No replica saw it, and when every
		// first arriver's init is lost the barrier never activates, so
		// it is sent again. The reissue waits a cycle, because an outage
		// fails a send within its cycle. A fail-stopped transceiver never
		// reissues; its task halts at the tone wait.
		if st.sendFn == nil {
			st.sendFn = st.send
		}
		c.eng.SleepThen(1, st.sendFn)
		return
	}
	then := st.then
	st.then = nil
	if committed {
		// Our own commit activated the barrier (onToneInit ran) and
		// registered us as arrived.
		pi.active = false
	} else {
		// Withdrawn: the activation marked us arrived. A fail-stopped
		// transceiver's lost init counts here too, as it always has.
		c.Stats.InitWithdrawn++
	}
	then()
}

// checkParticipant validates a tone_st issuer: addr must be an allocated
// barrier owned by pid with node armed as a participant (Section 4.4).
func (c *Controller) checkParticipant(node int, pid uint16, addr uint32) error {
	ae := c.findAlloc(addr)
	if ae == nil || ae.pid != pid || !ae.armed.has(node) {
		return &NotParticipantError{Node: node, Addr: addr}
	}
	return nil
}

// onToneInit runs at the commit of a Tone-bit Data-channel message. If the
// barrier is already active the message is a redundant late init (its
// sender tied for first arrival); otherwise it activates the barrier: the
// AllocB entry is copied to the bottom of ActiveB on every node, armed
// remote nodes begin issuing the tone, and non-armed nodes pre-set Arrived
// so they never participate (Section 5.1).
func (c *Controller) onToneInit(m wireless.Msg, at sim.Time) {
	if b := c.findActive(m.Addr); b != nil {
		c.arrive(b, m.Src)
		return
	}
	ae := c.findAlloc(m.Addr)
	if ae == nil {
		return // barrier freed while the init was in flight; drop
	}
	if len(c.active) == 0 {
		c.lastAct = at
	}
	var b *activeBarrier
	if k := len(c.barFree); k > 0 {
		b = c.barFree[k-1]
		c.barFree[k-1] = nil
		c.barFree = c.barFree[:k-1]
	} else {
		b = &activeBarrier{c: c}
		b.completeFn = b.complete
	}
	b.addr, b.participants, b.arrived = m.Addr, ae.armed, bitset{}
	b.remaining, b.activatedAt = ae.nArm, at
	c.active = append(c.active, b)
	c.Stats.Activations++
	c.arrive(b, m.Src)
	// Nodes whose own init for this barrier is still queued have also
	// arrived; withdraw their messages and register them.
	for n := range c.pending {
		pi := &c.pending[n]
		if n != m.Src && pi.active && pi.addr == m.Addr {
			pi.active = false
			pi.tok.Cancel()
			c.arrive(b, n)
		}
	}
}

// arrive registers node's arrival at b (its tone stops, or for the first
// arriver it never starts) and schedules silence detection when complete.
func (c *Controller) arrive(b *activeBarrier, node int) {
	if !b.participants.has(node) || b.arrived.has(node) {
		return
	}
	b.arrived.set(node)
	b.remaining--
	if b.remaining > 0 {
		return
	}
	// All participants arrived: the tone disappears. The controllers
	// detect silence at this barrier's next Tone-channel slot (round-
	// robin over the ActiveB table) plus the listen cycle.
	now := c.eng.Now()
	k := sim.Time(len(c.active))
	pos := sim.Time(c.activePos(b.addr))
	next := now + 1
	if rem := next % k; rem != pos {
		next += (pos - rem + k) % k
	}
	b.detectAt = next + 1
	c.eng.ScheduleAt(b.detectAt, sim.PrioNormal, b.completeFn)
}

// complete removes b from ActiveB on every node (entries below shift up)
// and toggles the barrier's BM location everywhere, releasing the cores
// spinning on tone_ld. The entry then returns to barFree.
func (b *activeBarrier) complete() {
	c := b.c
	pos := c.activePos(b.addr)
	if pos < 0 {
		return
	}
	c.active = append(c.active[:pos], c.active[pos+1:]...)
	c.Stats.Completions++
	c.Stats.DetectDelaySum += b.detectAt - b.activatedAt
	c.accountActive(b.detectAt)
	addr := b.addr
	c.barFree = append(c.barFree, b)
	c.bm.ToggleLocal(addr)
}

func (c *Controller) accountActive(now sim.Time) {
	if len(c.active) == 0 {
		c.Stats.ActiveCycles += now - c.lastAct
	} else {
		c.Stats.ActiveCycles += now - c.lastAct
		c.lastAct = now
	}
}

// WaitToggleAsync is the tone_ld spin: then receives the barrier variable
// at addr once it equals want. Cores poll their local BM replica between
// changes, with no traffic. The read bypasses PID ownership transfer (the
// variable belongs to the allocating process; participants share its
// PID).
func (c *Controller) WaitToggleAsync(node int, pid uint16, addr uint32, want uint64, then func(uint64)) error {
	return c.bm.SpinUntilAsync(node, pid, addr, sim.Eq(want), then)
}
