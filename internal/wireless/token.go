package wireless

import "wisync/internal/sim"

// tokenMAC is collision-free round-robin token passing, the token family
// of the WNoC MAC design space. A virtual token parks at the node that
// transmitted last; when the channel is free the MAC walks the ring from
// the holder's successor and grants the first node with a pending message,
// charging Params.TokenHopCycles per hop traversed. Only the token holder
// ever starts a transmission, so simultaneous arrivals serialize without
// collisions and the channel drains a synchronized storm at full rate
// (one hop plus one message time per sender). The cost is rotation
// latency: a lone sender pays a full ring traversal per message, which is
// where carrier-sense backoff wins — see the MAC comparison sweep.
type tokenMAC struct {
	n       *Network
	pending [][]*request // per-node FIFO of submitted requests
	holder  int          // node the token parks at (last to transmit)
	npend   int          // queued entries across all nodes (incl. stale)
	// armed marks an in-flight scan or token traversal, gating grants to
	// one at a time. epoch invalidates in-flight events when an adaptive
	// switch drains the queues.
	armed bool
	epoch uint64
	// excluded marks fail-stopped nodes the ring has already detected and
	// reconfigured around: their queued sends were failed, the token
	// skips them without timing out again, and they never rejoin. Nil
	// without a fault plan.
	excluded []bool
	stats    MACStats
}

func newTokenMAC(n *Network) *tokenMAC {
	m := &tokenMAC{
		n:       n,
		pending: make([][]*request, n.nodes),
		// Park the initial token so the scan starts at node 0.
		holder: n.nodes - 1,
	}
	if n.inj != nil {
		m.excluded = make([]bool, n.nodes)
	}
	return m
}

func (m *tokenMAC) Kind() MACKind { return MACToken }

func (m *tokenMAC) Submit(req *request) {
	req.queued = true
	m.pending[req.msg.Src] = append(m.pending[req.msg.Src], req)
	m.npend++
	m.arm()
}

// arm schedules a ring scan at the cycle the channel is next free, unless
// a scan or token traversal is already in flight.
func (m *tokenMAC) arm() {
	if m.armed || m.npend == 0 {
		return
	}
	m.armed = true
	at := m.n.eng.Now()
	if m.n.busyUntil > at {
		at = m.n.busyUntil
	}
	epoch := m.epoch
	// PrioLate, like slot arbitration: requests submitted earlier in the
	// same cycle (commit deliveries run at PrioNormal) participate.
	m.n.eng.ScheduleAt(at, sim.PrioLate, func() { m.scan(epoch) })
}

// scan walks the ring from the holder's successor and starts the token
// toward the first node with a live pending request.
func (m *tokenMAC) scan(epoch uint64) {
	if epoch != m.epoch {
		return // queues were drained by an adaptive mode switch
	}
	m.armed = false
	n := m.n
	now := n.eng.Now()
	if n.busyUntil > now {
		m.arm() // a new busy period started since this scan was armed
		return
	}
	for step := 1; step <= n.nodes; step++ {
		src := (m.holder + step) % n.nodes
		q := m.pending[src]
		for len(q) > 0 && q[0].state != reqPending {
			n.dequeued(q[0])
			q = q[1:] // withdrawn while queued
			m.npend--
		}
		m.pending[src] = q
		if n.inj != nil && n.inj.FailStopped(src, uint64(now)) {
			if m.failNode(src, step) {
				return // token lost crossing the dead node; regenerating
			}
			continue // already excluded: the ring skips it
		}
		if len(q) == 0 {
			continue
		}
		wait := sim.Time(step) * n.p.TokenHopCycles
		m.stats.TokenPasses += uint64(step)
		m.stats.TokenWaitCycles += uint64(wait)
		m.armed = true
		e := m.epoch
		n.eng.ScheduleAt(now+wait, sim.PrioLate, func() { m.deliver(src, e) })
		return
	}
}

// failNode handles the token path crossing fail-stopped node src: every
// queued send from the dead transceiver completes as a fault-injected
// failure, and — the first time only — the token is lost at the dead node
// and must be regenerated. It returns true when a regeneration was
// started (the caller's scan is over); false once the ring has been
// reconfigured to skip src.
func (m *tokenMAC) failNode(src, step int) bool {
	q := m.pending[src]
	for len(q) > 0 {
		m.n.dequeued(q[0])
		if q[0].state == reqPending {
			m.n.failPending(q[0])
		}
		q = q[1:]
		m.npend--
	}
	m.pending[src] = q
	if m.excluded[src] {
		return false
	}
	// The token cannot traverse a dead transceiver: it is lost here, the
	// ring detects the silence after the bounded timeout, reconfigures
	// around src, and regenerates the token at the dead node's position
	// (so the recovery scan resumes from its successor — no live node is
	// skipped, because every node between the old holder and src had an
	// empty queue).
	m.excluded[src] = true
	m.stats.TokenPasses += uint64(step)
	m.holder = src
	m.regenerate()
	return true
}

// regenerate schedules a token regeneration after the bounded
// TokenTimeout: all nodes observe the channel silent for the longest
// legitimate token silence, unanimously declare the token lost, and the
// scan restarts from the last holder's successor. armed stays set so no
// second grant path can start inside the window; the epoch guard kills
// the regeneration if an adaptive switch drains this MAC first.
func (m *tokenMAC) regenerate() {
	m.stats.TokenRegens++
	m.armed = true
	e := m.epoch
	m.n.eng.ScheduleAt(m.n.eng.Now()+m.n.p.TokenTimeout, sim.PrioLate, func() {
		if e != m.epoch {
			return
		}
		m.armed = false
		m.arm()
	})
}

// deliver runs when the token arrives at src: the head request transmits.
func (m *tokenMAC) deliver(src int, epoch uint64) {
	if epoch != m.epoch {
		return
	}
	n := m.n
	if n.inj != nil {
		if n.inj.TokenLost(uint64(n.eng.Now())) {
			// A scheduled token_loss event corrupted this handoff: the
			// token never arrives. The holder is unchanged — after the
			// timeout the scan repeats from the same position.
			m.regenerate()
			return
		}
		if n.inj.FailStopped(src, uint64(n.eng.Now())) {
			// src died while the token was in flight: the handoff lands on
			// a dead transceiver and the token is lost there.
			if !m.failNode(src, 0) {
				m.armed = false
				m.arm() // already excluded somehow; keep the ring turning
			}
			return
		}
	}
	m.armed = false
	q := m.pending[src]
	for len(q) > 0 && q[0].state != reqPending {
		n.dequeued(q[0])
		q = q[1:]
		m.npend--
	}
	if len(q) == 0 {
		// The chosen sender withdrew during the token flight; the hop
		// cost is sunk, rescan for the next sender.
		m.pending[src] = q
		m.arm()
		return
	}
	req := q[0]
	req.queued = false
	m.pending[src] = q[1:]
	m.npend--
	m.holder = src
	m.n.transmit(req, m.n.eng.Now())
}

func (m *tokenMAC) Granted(*request) { m.stats.Grants++ }

// GrantAborted: the channel is still free and the token is already at the
// holder, so the next sender can be granted in this very cycle.
func (m *tokenMAC) GrantAborted() { m.arm() }

func (m *tokenMAC) TxScheduled(sim.Time) { m.arm() }

// Backlog counts live queued requests; the adaptive MAC reads it as the
// ring occupancy behind each grant. It recounts rather than returning
// npend: withdrawn entries are only trimmed when a scan reaches them, and
// a stale count would delay the adaptive MAC's switch back to backoff.
func (m *tokenMAC) Backlog() int {
	live := 0
	for _, q := range m.pending {
		for _, r := range q {
			if r.state == reqPending {
				live++
			}
		}
	}
	return live
}

func (m *tokenMAC) Counters() MACStats { return m.stats }

// drain removes every queued request in token service order (round-robin
// from the holder's successor) for an adaptive mode switch, and bumps the
// epoch so any in-flight scan or token traversal event dies stale.
func (m *tokenMAC) drain() []*request {
	var out []*request
	for step := 1; step <= m.n.nodes; step++ {
		src := (m.holder + step) % m.n.nodes
		for _, r := range m.pending[src] {
			m.n.dequeued(r)
			if r.state == reqPending {
				out = append(out, r)
			}
		}
		m.pending[src] = nil
	}
	m.npend = 0
	m.armed = false
	m.epoch++
	return out
}
