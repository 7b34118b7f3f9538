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
	pending []reqFIFO // per-node FIFO of submitted requests
	holder  int       // node the token parks at (last to transmit)
	npend   int       // queued entries across all nodes (incl. stale)
	// armed marks an in-flight scan or token traversal, gating grants to
	// one at a time. epoch invalidates in-flight events when an adaptive
	// switch drains the queues.
	armed bool
	epoch uint64
	// evFree recycles the scan, token-arrival and regeneration events.
	evFree []*tokenEvent
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
		pending: make([]reqFIFO, n.nodes),
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
	m.pending[req.msg.Src].push(req)
	m.npend++
	m.arm()
}

// tokenEventKind selects what a tokenEvent does when it fires.
type tokenEventKind uint8

const (
	tokenScan tokenEventKind = iota
	tokenArrive
	tokenRegen
)

// tokenEvent is a scheduled ring scan, token arrival at src, or token
// regeneration, with the epoch it was scheduled in. An adaptive switch
// bumps the epoch while such an event can still be queued beside a live
// one, so each event carries its own and dies stale on a mismatch. Events
// recycle through evFree, so a token burst allocates nothing in the MAC.
type tokenEvent struct {
	m     *tokenMAC
	kind  tokenEventKind
	epoch uint64
	src   int
	fn    func() // cached method value of run
}

// schedule queues a tokenEvent at cycle at, at PrioLate like slot
// arbitration: requests submitted earlier in the same cycle (commit
// deliveries run at PrioNormal) participate.
func (m *tokenMAC) schedule(at sim.Time, kind tokenEventKind, src int) {
	var ev *tokenEvent
	if k := len(m.evFree); k > 0 {
		ev = m.evFree[k-1]
		m.evFree = m.evFree[:k-1]
	} else {
		ev = &tokenEvent{m: m}
		ev.fn = ev.run
	}
	ev.kind, ev.epoch, ev.src = kind, m.epoch, src
	m.n.eng.ScheduleAt(at, sim.PrioLate, ev.fn)
}

func (ev *tokenEvent) run() {
	m, kind, src := ev.m, ev.kind, ev.src
	stale := ev.epoch != m.epoch
	m.evFree = append(m.evFree, ev)
	if stale {
		return // queues were drained by an adaptive mode switch
	}
	switch kind {
	case tokenScan:
		m.scan()
	case tokenArrive:
		m.deliver(src)
	case tokenRegen:
		m.armed = false
		m.arm()
	}
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
	m.schedule(at, tokenScan, 0)
}

// scan walks the ring from the holder's successor and starts the token
// toward the first node with a live pending request.
func (m *tokenMAC) scan() {
	m.armed = false
	n := m.n
	now := n.eng.Now()
	if n.busyUntil > now {
		m.arm() // a new busy period started since this scan was armed
		return
	}
	for step := 1; step <= n.nodes; step++ {
		src := (m.holder + step) % n.nodes
		q := &m.pending[src]
		m.dropWithdrawn(q)
		if n.inj != nil && n.inj.FailStopped(src, uint64(now)) {
			if m.failNode(src, step) {
				return // token lost crossing the dead node; regenerating
			}
			continue // already excluded: the ring skips it
		}
		if q.len() == 0 {
			continue
		}
		wait := sim.Time(step) * n.p.TokenHopCycles
		m.stats.TokenPasses += uint64(step)
		m.stats.TokenWaitCycles += uint64(wait)
		m.armed = true
		m.schedule(now+wait, tokenArrive, src)
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
	q := &m.pending[src]
	for q.len() > 0 {
		r := q.pop()
		m.n.dequeued(r)
		if r.state == reqPending {
			m.n.failPending(r)
		}
		m.npend--
	}
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
	m.schedule(m.n.eng.Now()+m.n.p.TokenTimeout, tokenRegen, 0)
}

// deliver runs when the token arrives at src: the head request transmits.
func (m *tokenMAC) deliver(src int) {
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
	q := &m.pending[src]
	m.dropWithdrawn(q)
	if q.len() == 0 {
		// The chosen sender withdrew during the token flight; the hop
		// cost is sunk, rescan for the next sender.
		m.arm()
		return
	}
	req := q.pop()
	req.queued = false
	m.npend--
	m.holder = src
	m.n.transmit(req, m.n.eng.Now())
}

// dropWithdrawn pops the requests at the head of q that were withdrawn
// while queued.
func (m *tokenMAC) dropWithdrawn(q *reqFIFO) {
	for q.len() > 0 && q.peek().state != reqPending {
		m.n.dequeued(q.pop())
		m.npend--
	}
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
	for i := range m.pending {
		for _, r := range m.pending[i].live() {
			if r.state == reqPending {
				live++
			}
		}
	}
	return live
}

func (m *tokenMAC) Counters() MACStats { return m.stats }

// drain appends every queued request to out in token service order
// (round-robin from the holder's successor) for an adaptive mode switch,
// and bumps the epoch so any in-flight scan or token traversal event dies
// stale.
func (m *tokenMAC) drain(out []*request) []*request {
	for step := 1; step <= m.n.nodes; step++ {
		src := (m.holder + step) % m.n.nodes
		for _, r := range m.pending[src].live() {
			m.n.dequeued(r)
			if r.state == reqPending {
				out = append(out, r)
			}
		}
		m.pending[src].reset()
	}
	m.npend = 0
	m.armed = false
	m.epoch++
	return out
}
