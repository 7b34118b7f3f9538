package wireless

import (
	"encoding/json"
	"fmt"

	"wisync/internal/sim"
)

// MACKind selects the channel's medium-access-control protocol. The WNoC
// literature treats the MAC as the key design axis of a shared wireless
// channel (Abadal et al., "Medium Access Control in Wireless
// Network-on-Chip: A Context Analysis"): random-access families win under
// light, bursty traffic, token families win under sustained saturation,
// and traffic-aware designs (Mansoor et al.) switch between the two.
type MACKind uint8

const (
	// MACBackoff is the paper's design (Section 5.3): carrier sensing
	// with busy deferral plus binary exponential backoff on collisions.
	// It is the default and reproduces the paper's channel behavior
	// exactly.
	MACBackoff MACKind = iota
	// MACToken is collision-free round-robin token passing: a virtual
	// token rotates over the nodes and only the holder may transmit, so
	// simultaneous arrivals serialize without ever colliding, at the cost
	// of token-rotation latency for sparse senders.
	MACToken
	// MACAdaptive is a traffic-aware switcher: it runs MACBackoff while
	// the channel is lightly contended and hands the backlog to MACToken
	// when the observed collision rate over a window crosses a threshold,
	// returning to backoff once contention drains.
	MACAdaptive
)

// MACKinds lists the selectable protocols in presentation order.
var MACKinds = []MACKind{MACBackoff, MACToken, MACAdaptive}

func (k MACKind) String() string {
	switch k {
	case MACBackoff:
		return "backoff"
	case MACToken:
		return "token"
	case MACAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("MACKind(%d)", int(k))
}

// ParseMACKind resolves a -mac flag value.
func ParseMACKind(s string) (MACKind, bool) {
	for _, k := range MACKinds {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Valid reports whether k names a selectable protocol.
func (k MACKind) Valid() bool { return k <= MACAdaptive }

// MarshalJSON renders the protocol as its flag name; unknown values are an
// error so a corrupt kind cannot produce a plausible canonical form.
func (k MACKind) MarshalJSON() ([]byte, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("wireless: cannot marshal invalid %v", k)
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts a protocol name as ParseMACKind does.
func (k *MACKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("wireless: mac must be a name string: %w", err)
	}
	v, ok := ParseMACKind(s)
	if !ok {
		return fmt.Errorf("wireless: unknown mac %q", s)
	}
	*k = v
	return nil
}

// MACStats are the per-protocol arbitration counters, kept separate from
// the channel-level Stats so the golden-conformance rendering of Stats is
// unchanged by the MAC refactor. Counters irrelevant to the selected
// protocol stay zero (a backoff run never passes a token; a token run
// never collides).
type MACStats struct {
	// Grants counts transmissions the MAC granted the channel to and
	// that actually transmitted. Each ends in a committed message
	// (Stats.Messages), in a corrupted frame that is sent again
	// (EnergyStats.Retransmissions) or given up
	// (EnergyStats.DeliveryFailures), or, in a run cut at a horizon
	// (the CAS kernels' RunUntil), still in flight at the cut: at most
	// one, as there is one medium. On the ideal channel Grants is
	// therefore Messages, or Messages+1 after a cut. Grants abandoned at
	// the prepare hook are counted by Stats.SkippedGrants, not here (the
	// channel was never occupied and backoff state does not decay).
	Grants uint64
	// Collisions counts collision events resolved by exponential backoff.
	Collisions uint64
	// TokenPasses counts token hops between consecutive grants.
	TokenPasses uint64
	// TokenWaitCycles is the total time transmissions spent waiting for
	// the token to reach their node.
	TokenWaitCycles uint64
	// ModeSwitches counts adaptive backoff<->token transitions.
	ModeSwitches uint64
	// TokenRegens counts token regenerations after a detected loss: the
	// ring path crossed a fail-stopped node, or a fault-plan token_loss
	// event corrupted a handoff. Always zero without a fault plan.
	TokenRegens uint64
}

func (s *MACStats) add(o MACStats) {
	s.Grants += o.Grants
	s.Collisions += o.Collisions
	s.TokenPasses += o.TokenPasses
	s.TokenWaitCycles += o.TokenWaitCycles
	s.ModeSwitches += o.ModeSwitches
	s.TokenRegens += o.TokenRegens
}

// MAC is the channel arbitration policy: it decides when each submitted
// transmission may occupy the shared medium. The Network owns the physical
// channel model (busy periods, commits, delivery, the prepare hook) and
// calls back into the MAC at the three protocol-defining points —
// channel-idle contention (Submit), grant time (Granted / GrantAborted)
// and busy-period end (TxScheduled schedules the follow-up). A MAC starts
// a transmission by calling Network.transmit; everything after the grant
// is protocol-independent.
//
// Implementations live in this package (the request type is internal) and
// are selected through Params.MAC; see MACKind for the protocol catalog.
type MAC interface {
	// Kind identifies the protocol.
	Kind() MACKind
	// Submit routes a transmission attempt at the current cycle. The MAC
	// must eventually start the request (Network.transmit), unless it is
	// withdrawn first.
	Submit(req *request)
	// Granted is called when req is about to occupy the channel, before
	// the commit is scheduled: the protocol updates its contention state
	// (backoff decrement, token position).
	Granted(req *request)
	// GrantAborted is called when a granted request was abandoned at the
	// prepare hook: the channel is still free in this very cycle and the
	// MAC may start the next sender in the same slot.
	GrantAborted()
	// TxScheduled is called after a transmission's commit has been
	// scheduled; end is the cycle the busy period ends. The MAC arranges
	// its busy-end follow-up (releasing a deferred sender, re-arming the
	// token scan).
	TxScheduled(end sim.Time)
	// Counters returns the per-protocol counter snapshot.
	Counters() MACStats
}

// initMAC builds the protocol selected by k for n, in n.macs.
func (n *Network) initMAC(k MACKind) MAC {
	s := &n.macs
	switch k {
	case MACToken:
		s.token.init(n)
		return &s.token
	case MACAdaptive:
		s.backoff.init(n)
		s.token.init(n)
		s.adaptive.init(n, &s.backoff, &s.token)
		return &s.adaptive
	default:
		s.backoff.init(n)
		return &s.backoff
	}
}

// reqFIFO is a MAC's FIFO of queued requests, popped by a head index. Its
// array is reused: a drained queue starts again at index 0, and a full
// array that is at least half consumed is compacted rather than grown, so
// a standing backlog reuses one array.
type reqFIFO struct {
	q    []*request
	head int
}

func (f *reqFIFO) len() int { return len(f.q) - f.head }

// live returns the queued requests, oldest first.
func (f *reqFIFO) live() []*request { return f.q[f.head:] }

func (f *reqFIFO) peek() *request { return f.q[f.head] }

func (f *reqFIFO) push(r *request) {
	if live := f.len(); len(f.q) == cap(f.q) && f.head > 0 && f.head >= live {
		copy(f.q, f.q[f.head:])
		clear(f.q[live:])
		f.q, f.head = f.q[:live], 0
	}
	f.q = append(f.q, r)
}

func (f *reqFIFO) pop() *request {
	r := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return r
}

// reset empties the queue, keeping its array.
func (f *reqFIFO) reset() {
	clear(f.q)
	f.q, f.head = f.q[:0], 0
}
