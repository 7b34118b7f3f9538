package tone

import (
	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// ToneStore is the tone_st instruction: node announces arrival at the
// barrier whose variable lives at addr (Section 4.2.2). It does not update
// the BM location. If this node's controller is already issuing a tone for
// addr, it simply stops (arrival registered); otherwise this node believes
// it is the first arriver and broadcasts the Tone-bit message on the Data
// channel. ToneStore returns when the arrival is architecturally visible.
func (c *Controller) ToneStore(p *sim.Proc, node int, pid uint16, addr uint32) error {
	if err := c.checkParticipant(node, pid, addr); err != nil {
		return err
	}
	if b := c.findActive(addr); b != nil {
		// Tone being issued locally: stop it (arrive).
		c.arrive(b, node)
		p.Sleep(1)
		return nil
	}
	// Not active: this node is (or ties for) the first arriver. Send the
	// init message; if another node's init commits first, ours is
	// withdrawn by the activation and our arrival is registered there.
	pi := &c.pending[node]
	*pi = pendingInit{active: true, addr: addr}
	committed := c.net.Send(p, wireless.Msg{
		Src: node, Addr: addr, Kind: wireless.KindToneInit, PID: pid,
	}, &pi.tok)
	if committed {
		pi.active = false
		// Our own commit activated the barrier (onToneInit ran) and
		// registered us as arrived.
		return nil
	}
	// Withdrawn: the activation marked us arrived.
	c.Stats.InitWithdrawn++
	return nil
}

// ToneStoreAsync is the continuation mirror of ToneStore: then runs at the
// cycle the arrival is architecturally visible. Faults are reported
// synchronously, before any simulated time elapses, exactly as in the
// blocking form.
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
	pi := &c.pending[node]
	*pi = pendingInit{active: true, addr: addr}
	c.net.SendAsync(wireless.Msg{
		Src: node, Addr: addr, Kind: wireless.KindToneInit, PID: pid,
	}, &pi.tok, func(committed bool) {
		if committed {
			pi.active = false
		} else {
			// Withdrawn: the activation marked us arrived.
			c.Stats.InitWithdrawn++
		}
		then()
	})
	return nil
}

// checkParticipant validates a tone_st issuer: addr must be an allocated
// barrier owned by pid with node armed as a participant (Section 4.4).
// Shared by both faces of ToneStore so fault behavior cannot diverge
// between execution modes.
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
	b := &activeBarrier{
		addr:         m.Addr,
		participants: ae.armed,
		remaining:    ae.nArm,
		activatedAt:  at,
	}
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
	detect := next + 1
	c.eng.ScheduleAt(detect, sim.PrioNormal, func() { c.complete(b, detect) })
}

// complete removes b from ActiveB on every node (entries below shift up)
// and toggles the barrier's BM location everywhere, releasing the cores
// spinning on tone_ld.
func (c *Controller) complete(b *activeBarrier, detectedAt sim.Time) {
	pos := c.activePos(b.addr)
	if pos < 0 {
		return
	}
	c.active = append(c.active[:pos], c.active[pos+1:]...)
	c.Stats.Completions++
	c.Stats.DetectDelaySum += detectedAt - b.activatedAt
	c.accountActive(detectedAt)
	c.bm.ToggleLocal(b.addr)
}

func (c *Controller) accountActive(now sim.Time) {
	if len(c.active) == 0 {
		c.Stats.ActiveCycles += now - c.lastAct
	} else {
		c.Stats.ActiveCycles += now - c.lastAct
		c.lastAct = now
	}
}

// ToneLoad is the tone_ld instruction: a plain local BM read of the barrier
// variable, bypassing PID ownership transfer (the variable belongs to the
// allocating process; participants share its PID).
func (c *Controller) ToneLoad(p *sim.Proc, node int, pid uint16, addr uint32) (uint64, error) {
	return c.bm.Load(p, node, pid, addr)
}

// WaitToggle parks until the barrier variable at addr changes, then returns
// its new value. Cores use it to spin efficiently between tone_ld polls.
func (c *Controller) WaitToggle(p *sim.Proc, node int, pid uint16, addr uint32, want uint64) (uint64, error) {
	for {
		v, err := c.bm.Load(p, node, pid, addr)
		if err != nil {
			return 0, err
		}
		if v == want {
			return v, nil
		}
		c.bm.WaitChange(p, node, addr)
	}
}

// WaitToggleAsync is the continuation mirror of WaitToggle: then receives
// the barrier variable once it equals want, with the same local-poll /
// wait-change cadence as the blocking form.
func (c *Controller) WaitToggleAsync(node int, pid uint16, addr uint32, want uint64, then func(uint64)) error {
	return c.bm.SpinUntilAsync(node, pid, addr, func(v uint64) bool { return v == want }, then)
}
