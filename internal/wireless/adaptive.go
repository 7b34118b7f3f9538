package wireless

import "wisync/internal/sim"

// adaptiveMAC is a traffic-aware protocol switcher in the style of Mansoor
// et al.'s traffic-adaptive WNoC MAC: random access while the channel is
// lightly loaded, token passing under sustained contention. It runs the
// backoff MAC and watches the collision rate over a window of grants; when
// the rate crosses Params.AdaptiveCollisionRate it hands the entire
// backlog to the token MAC. In token mode it watches the ring occupancy
// instead and returns to backoff once a full window completes with at most
// one sender queued behind each grant (the contention that justified the
// token is gone).
//
// Hysteresis comes from the window: a switch can happen at most once per
// AdaptiveWindow grants, the window counters reset at every switch, and
// the two directions use different signals (collision rate up, ring
// occupancy down), so the protocol cannot flap on the boundary of a single
// threshold. Switches migrate every queued request to the incoming MAC in
// deterministic order at the switch cycle; in-flight token events die
// through the epoch counter, in-flight backoff slot events fire as no-ops.
type adaptiveMAC struct {
	n       *Network
	backoff *backoffMAC
	token   *tokenMAC
	active  MAC
	inToken bool
	// Window accounting. winCollBase snapshots the channel collision
	// counter at window start (collisions happen inside the backoff MAC's
	// slot arbitration, invisible to the wrapper except through stats).
	winGrants   int
	winCollBase uint64
	winMaxQueue int
	switches    uint64
	// moved is the backlog a switch migrates, its array reused.
	moved []*request
}

func newAdaptiveMAC(n *Network) *adaptiveMAC {
	m := &adaptiveMAC{n: n, backoff: newBackoffMAC(n), token: newTokenMAC(n)}
	m.active = m.backoff
	return m
}

func (m *adaptiveMAC) Kind() MACKind { return MACAdaptive }

// Mode reports which protocol is currently arbitrating.
func (m *adaptiveMAC) Mode() MACKind { return m.active.Kind() }

func (m *adaptiveMAC) Submit(req *request) { m.active.Submit(req) }

func (m *adaptiveMAC) Granted(req *request) {
	m.active.Granted(req)
	m.winGrants++
	if m.inToken && m.token.Backlog() > m.winMaxQueue {
		m.winMaxQueue = m.token.Backlog()
	}
}

func (m *adaptiveMAC) GrantAborted() { m.active.GrantAborted() }

// TxScheduled is the switch point: a transmission just started, so neither
// sub-MAC has a grant in flight and the backlog can migrate atomically.
func (m *adaptiveMAC) TxScheduled(end sim.Time) {
	m.evaluate()
	m.active.TxScheduled(end)
}

func (m *adaptiveMAC) evaluate() {
	if m.winGrants < m.n.p.AdaptiveWindow {
		return
	}
	if !m.inToken {
		coll := m.n.Stats.Collisions - m.winCollBase
		rate := float64(coll) / float64(coll+uint64(m.winGrants))
		if rate > m.n.p.AdaptiveCollisionRate {
			m.switchMode()
		}
	} else if m.winMaxQueue <= 1 {
		m.switchMode()
	}
	m.winGrants = 0
	m.winCollBase = m.n.Stats.Collisions
	m.winMaxQueue = 0
}

func (m *adaptiveMAC) switchMode() {
	moved := m.moved[:0]
	if m.inToken {
		moved = m.token.drain(moved)
		m.active = m.backoff
	} else {
		moved = m.backoff.drain(moved)
		m.active = m.token
	}
	m.inToken = !m.inToken
	m.switches++
	for _, r := range moved {
		m.active.Submit(r)
	}
	clear(moved)
	m.moved = moved[:0]
}

func (m *adaptiveMAC) Counters() MACStats {
	s := m.backoff.Counters()
	s.add(m.token.Counters())
	s.ModeSwitches = m.switches
	return s
}
