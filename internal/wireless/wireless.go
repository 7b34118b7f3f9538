// Package wireless models the WiSync Data channel (Section 4.1): a single
// 19 Gb/s wireless channel shared by all nodes, slotted at 1 ns (one
// processor cycle).
//
// A message carries a 64-bit datum, an 11-bit BM address, a Bulk bit and a
// Tone bit (77 bits total) and occupies the channel for 5 cycles; Bulk
// messages carry four data words in 15 cycles. If two or more nodes start
// transmitting in the same slot they collide: the collision is detected in
// the second cycle and the channel is free again in the third, so a
// collision costs 2 cycles. Colliding nodes retry under binary exponential
// backoff (Section 5.3). A node that finds the channel busy defers to the
// cycle at which the channel is next expected to be free — all nodes can
// compute it because the first cycle of every message carries the Bulk bit.
//
// Deferred senders drain according to Params.Defer. The default, DeferFIFO,
// lets the backlog drain in deferral order at full channel rate: collisions
// happen between messages that start in the same idle slot (genuinely
// simultaneous arrivals), while queued senders restart cleanly. This is
// calibrated to the paper's observed behavior — under the synchronized
// bursts of a fetch&inc barrier, the channel must run near capacity (e.g.,
// 256 arrivals in roughly 256 message times in Figure 7), with collision
// losses visible but secondary. DeferContend is the pessimistic pure-CSMA
// alternative where every deferred sender re-contends at busy-end; it is
// kept as an ablation.
//
// Committed messages are delivered to all subscribers at the commit cycle;
// the channel provides a total order of commits, which is what makes the
// replicated Broadcast Memories of package bmem consistent.
//
// Arbitration is pluggable: the busy-deferral, collision and backoff
// behavior described above is the default MAC protocol (Params.MAC ==
// MACBackoff), selected among the protocols of the MACKind catalog —
// collision-free token passing and a traffic-adaptive switcher are the
// alternatives. The Network owns the physical channel (busy periods,
// commits, delivery); the MAC interface owns every arbitration decision.
package wireless

import (
	"fmt"

	"wisync/internal/channel"
	"wisync/internal/fault"
	"wisync/internal/sim"
)

// Kind labels what a message does at the receiving Broadcast Memories.
type Kind uint8

// Message kinds.
const (
	// KindStore writes Val to Addr in every BM.
	KindStore Kind = iota
	// KindRMW is the broadcast-write half of a read-modify-write.
	KindRMW
	// KindBulk writes Val and BulkVals to four consecutive addresses.
	KindBulk
	// KindToneInit announces the first arrival at a tone barrier (the
	// message with the Tone bit set; the data field is immaterial).
	KindToneInit
	// KindAlloc allocates Addr in every BM and tags it with PID.
	KindAlloc
	// KindFree deallocates Addr in every BM.
	KindFree
)

func (k Kind) String() string {
	switch k {
	case KindStore:
		return "store"
	case KindRMW:
		return "rmw"
	case KindBulk:
		return "bulk"
	case KindToneInit:
		return "tone-init"
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	}
	return "?"
}

// Msg is one wireless Data-channel message.
type Msg struct {
	Src      int
	Addr     uint32
	Val      uint64
	BulkVals [3]uint64
	Kind     Kind
	PID      uint16
	// Op, when non-nil on a KindRMW message, is the read-modify-write
	// operation the BM controllers apply at commit time (grant-time RMW
	// evaluation; see bmem). Every replica applies it to the same
	// committed value, so the result is identical chip-wide.
	Op func(uint64) (uint64, bool)
}

// BackoffPolicy selects how the exponential backoff exponent i evolves.
type BackoffPolicy uint8

const (
	// BackoffPersistent is the Section 5.3 design: a per-node i
	// incremented at every collision and decremented at every successful
	// transmission, persisting across messages. This is the default.
	BackoffPersistent BackoffPolicy = iota
	// BackoffPerMessage is classic Ethernet binary exponential backoff
	// [32]: every message starts at i=0 and increments i on each of its
	// own collisions (ablation).
	BackoffPerMessage
	// BackoffAdaptive is the reactive policy the paper sketches but does
	// not explore (Section 5.3): every node observes every collision and
	// success (broadcast medium), so all nodes share a contention
	// estimate and start new transmissions with a window already matched
	// to it, instead of discovering contention one collision at a time.
	BackoffAdaptive
)

// DeferPolicy selects what a sender does when it finds the channel busy.
type DeferPolicy uint8

const (
	// DeferFIFO queues deferred senders and releases them one per busy-
	// end, draining backlog at channel rate (default; see package doc).
	DeferFIFO DeferPolicy = iota
	// DeferContend makes every deferred sender re-contend at the first
	// free cycle, pure 1-persistent CSMA (ablation).
	DeferContend
)

// Params configures the channel timing.
type Params struct {
	// MsgCycles is the duration of an ordinary message (5: four transfer
	// cycles plus the collision-listen cycle).
	MsgCycles sim.Time
	// BulkCycles is the duration of a Bulk message (15: the trailing
	// three words need no collision check, address or control bits).
	BulkCycles sim.Time
	// CollisionCycles is how long a collision occupies the channel (2:
	// detected in the second cycle, free in the third).
	CollisionCycles sim.Time
	// MaxBackoffExp caps the exponential backoff exponent i. Zero means
	// auto: log2(nodes)+1, so the maximum window tracks the worst-case
	// number of simultaneous contenders.
	MaxBackoffExp int
	// Backoff selects the backoff policy.
	Backoff BackoffPolicy
	// Defer selects the busy-channel deferral discipline.
	Defer DeferPolicy
	// ConstantBackoffWindow, if nonzero, replaces exponential backoff
	// with a fixed window of that size (ablation).
	ConstantBackoffWindow int
	// MAC selects the arbitration protocol (default MACBackoff, the
	// paper's design; the Backoff/Defer/ConstantBackoffWindow knobs above
	// configure it). MACToken and MACAdaptive are the alternatives.
	MAC MACKind
	// TokenHopCycles is the token-passing latency per ring hop for
	// MACToken and the token mode of MACAdaptive (default 1: the token is
	// a one-bit tone-like signal, so a hop fits in one channel slot).
	TokenHopCycles sim.Time
	// AdaptiveWindow is how many grants MACAdaptive observes between
	// protocol-switch decisions (default 32).
	AdaptiveWindow int
	// AdaptiveCollisionRate is the collision-rate threshold above which
	// MACAdaptive hands the channel to the token protocol (default 0.25).
	AdaptiveCollisionRate float64
	// Channel configures the channel-error model underneath the MAC. The
	// zero value (and the default) is the ideal error-free channel the
	// paper assumes; see package channel for the lossy profiles.
	Channel channel.Params
	// TokenTimeout is the bounded token-loss detection window for
	// MACToken and the token mode of MACAdaptive: when the token is lost
	// (the ring path crosses a fail-stopped node, or a scheduled
	// token_loss event corrupts a handoff), every node observes the
	// channel silent for this many cycles, agrees the token died, and the
	// ring regenerates it. Zero means auto: nodes*TokenHopCycles +
	// MsgCycles, the longest legitimate token silence (a full rotation
	// plus one message time).
	TokenTimeout sim.Time `json:",omitempty"`
	// Faults is the deterministic fault-injection plan (nil, the default:
	// no faults). It rides the config into canonicalization, so two sweep
	// points with different plans digest — and therefore memoize —
	// separately. See package fault.
	Faults *fault.Plan `json:",omitempty"`
}

// DefaultParams returns the Table 1 channel configuration.
func DefaultParams() Params {
	return Params{
		MsgCycles:             5,
		BulkCycles:            15,
		CollisionCycles:       2,
		Backoff:               BackoffPersistent,
		Defer:                 DeferFIFO,
		MAC:                   MACBackoff,
		TokenHopCycles:        1,
		AdaptiveWindow:        32,
		AdaptiveCollisionRate: 0.25,
		Channel:               channel.DefaultParams(),
	}
}

type reqState uint8

const (
	reqPending reqState = iota
	reqTransmitting
	reqDone
	reqCanceled
)

type request struct {
	n *Network
	// Exactly one of p and then is set: p is a blocking sender parked in
	// Send (or SendParked), then the completion callback of a SendAsync.
	p         *sim.Proc
	then      func(committed bool)
	msg       Msg
	start     sim.Time
	state     reqState
	committed bool
	attempts  int // collisions suffered by this message
	retx      int // retransmissions after corrupted deliveries
	// epoch counts the record's trips through the freelist. A Token
	// snapshots it at issue time, so a Cancel that outlives the message —
	// the record may already carry a different sender's message — is
	// recognized as stale and refused.
	epoch uint64
}

// deliverCont is a recycled async-completion delivery: the event that
// hands a SendAsync outcome to its callback, pooled on the Network so a
// continuation sender costs no closure per message. Outcome fields
// (state, committed) are read at fire time, exactly as the closure this
// replaces did — a withdrawal landing between resume and delivery is
// still observed.
type deliverCont struct {
	n   *Network
	req *request
	fn  func() // cached method value of run
}

func (c *deliverCont) run() {
	n, req := c.n, c.req
	c.req = nil
	n.deliverFree = append(n.deliverFree, c)
	then := req.then
	req.then = nil
	if req.state == reqCanceled {
		n.Stats.Withdrawn++
		then(false) // canceled records stay with the MAC backlog; not pooled
		return
	}
	committed := req.committed
	n.freeRequest(req) // before then: the callback may start the next send
	then(committed)
}

// resume returns control to the sender at the current cycle: a parked
// blocking sender is dispatched directly (an allocation-free process
// event), a continuation sender's completion callback is scheduled. Both
// land at the same (time, priority, sequence) position, so the two sender
// styles are interchangeable without affecting simulated results.
func (r *request) resume() {
	if r.p != nil {
		r.p.Wake(0)
		return
	}
	n := r.n
	var c *deliverCont
	if k := len(n.deliverFree); k > 0 {
		c = n.deliverFree[k-1]
		n.deliverFree = n.deliverFree[:k-1]
	} else {
		c = &deliverCont{n: n}
		c.fn = c.run
	}
	c.req = r
	n.eng.Schedule(0, c.fn)
}

// Token allows the owner of an in-flight Send to withdraw it (used when a
// pending RMW loses atomicity: the write must not be broadcast).
type Token struct {
	req   *request
	epoch uint64 // req.epoch at issue; stale once the record is recycled
}

// Cancel withdraws the transfer if it has not yet won the channel. It
// reports whether the transfer was withdrawn; false means the message is
// already transmitting or committed, or Cancel was called twice. A Token
// held past its message's completion stays safe: the pooled record's epoch
// has moved on, so the stale Cancel is refused even if the record already
// carries another sender's message.
func (t *Token) Cancel() bool {
	r := t.req
	if r == nil || r.epoch != t.epoch || r.state != reqPending {
		return false
	}
	r.state = reqCanceled
	r.resume()
	return true
}

// Stats accumulates channel counters.
type Stats struct {
	Messages      uint64
	Collisions    uint64 // collision events (2+ nodes in one slot)
	Withdrawn     uint64
	SkippedGrants uint64   // RMWs abandoned at grant (write would not happen)
	BusyCycles    sim.Time // cycles the channel carried a message or collision
	LatencySum    sim.Time // sum over messages of commit - request time
}

// Utilization returns the fraction of cycles in [0, now] the channel was
// busy.
func (s *Stats) Utilization(now sim.Time) float64 {
	if now == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(now)
}

// MeanLatency returns the average request-to-commit latency in cycles.
func (s *Stats) MeanLatency() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Messages)
}

// Network is the Data channel.
type Network struct {
	eng       *sim.Engine
	p         Params
	nodes     int
	rng       *sim.Rand
	busyUntil sim.Time
	mac       MAC
	subs      []func(Msg, sim.Time)
	prepare   func(Msg) bool
	// deliverFree and commitFree recycle the per-message scheduling
	// continuations (async completion delivery, transmission commit), and
	// reqFree recycles the request records themselves (epoch-validated; see
	// request.epoch), so the steady-state Send/SendAsync message path
	// allocates nothing.
	deliverFree []*deliverCont
	commitFree  []*commitCont
	reqFree     []*request
	// ch decides per-transmission delivery outcomes; chRng feeds its draws
	// and is forked from the engine only for non-ideal profiles, so the
	// default channel consumes no entropy and perturbs no golden trace.
	ch    channel.Model
	chRng *sim.Rand
	// energyPerNode mirrors every Energy charge onto the spending node.
	energyPerNode []float64
	// inj answers fault-plan queries at the submit and grant commit
	// points. It is nil without a plan, so the default no-fault path
	// evaluates no predicates, schedules no events and forks no rng —
	// every golden trace is untouched.
	inj *fault.Injector
	// Stats is exported for harness reporting.
	Stats Stats
	// Energy is the transceiver energy ledger plus the channel-error
	// delivery counters. Kept out of Stats so the golden rendering of
	// Stats is unchanged by the channel model's existence.
	Energy EnergyStats
}

// New creates a Data channel for the given node count.
func New(eng *sim.Engine, nodes int, p Params) *Network {
	if p.MsgCycles == 0 {
		p = DefaultParams()
	}
	if p.MaxBackoffExp == 0 {
		p.MaxBackoffExp = 1
		for v := 1; v < nodes; v <<= 1 {
			p.MaxBackoffExp++
		}
	}
	if p.TokenHopCycles == 0 {
		p.TokenHopCycles = 1
	}
	if p.AdaptiveWindow == 0 {
		p.AdaptiveWindow = 32
	}
	if p.AdaptiveCollisionRate == 0 {
		p.AdaptiveCollisionRate = 0.25
	}
	if p.TokenTimeout == 0 {
		p.TokenTimeout = sim.Time(nodes)*p.TokenHopCycles + p.MsgCycles
	}
	ch, err := channel.New(nodes, p.Channel)
	if err != nil {
		// Channel params are validated by config.Validate before any
		// machine is built; reaching here is a programming error.
		panic(fmt.Sprintf("wireless: %v", err))
	}
	n := &Network{
		eng:           eng,
		p:             p,
		nodes:         nodes,
		rng:           eng.Rand().Fork(),
		ch:            ch,
		energyPerNode: make([]float64, nodes),
	}
	if !ch.Ideal() {
		n.chRng = eng.Rand().Fork()
	}
	n.inj = fault.NewInjector(p.Faults)
	n.mac = newMAC(n, p.MAC)
	return n
}

// NodeFailStopped reports whether node's transceiver has permanently
// fail-stopped at the current cycle. Always false without a fault plan.
// Cores guard their broadcast retry loops on it so a dead transceiver
// surfaces as a fault record instead of an infinite retry spin.
func (n *Network) NodeFailStopped(node int) bool {
	return n.inj != nil && n.inj.FailStopped(node, uint64(n.eng.Now()))
}

// Params returns the channel configuration.
func (n *Network) Params() Params { return n.p }

// Subscribe registers fn to be called at the commit cycle of every message,
// in subscription order. Subscribers run in engine (event) context.
func (n *Network) Subscribe(fn func(Msg, sim.Time)) {
	n.subs = append(n.subs, fn)
}

// SetPrepare installs the transmission-start check. When it returns false
// for a message that just won the channel, the transfer is abandoned
// without occupying any cycles — "the write is attempted, and it fails"
// (Section 4.2.1): a read-modify-write whose update is stale never
// broadcasts, so the channel carries only useful commits. The hook must be
// side-effect free.
func (n *Network) SetPrepare(fn func(Msg) bool) { n.prepare = fn }

// MACCounters returns the per-protocol arbitration counters.
func (n *Network) MACCounters() MACStats { return n.mac.Counters() }

// Send transmits msg, blocking p until the message commits at all receivers
// or the transfer is withdrawn through tok (which may be nil). It reports
// whether the message committed.
func (n *Network) Send(p *sim.Proc, msg Msg, tok *Token) bool {
	req := n.newRequest(msg)
	req.p = p
	if tok != nil {
		tok.req = req
		tok.epoch = req.epoch
	}
	n.submit(req)
	p.Park("wireless tx")
	if req.state == reqCanceled {
		n.Stats.Withdrawn++
		return false // canceled records stay with the MAC backlog; not pooled
	}
	committed := req.committed
	n.freeRequest(req)
	return committed
}

// SendAsync transmits msg without a sending process: then runs as an
// engine event at the cycle the message commits at all receivers
// (committed=true) or is withdrawn through tok / abandoned at grant
// (committed=false). It is the continuation mirror of Send — then fires at
// exactly the (time, priority, sequence) position where Send's parked
// process would have been dispatched — for protocol models that run as
// engine-scheduled continuation chains.
func (n *Network) SendAsync(msg Msg, tok *Token, then func(committed bool)) {
	req := n.newRequest(msg)
	if tok != nil {
		tok.req = req
		tok.epoch = req.epoch
	}
	req.then = then
	n.submit(req)
}

// SendParked transmits msg on behalf of p, which the caller must park in
// the same event (before any other event can run). Continuation chains
// that end in a transmission use it so the commit dispatches the sender
// directly — the same allocation-free completion as a blocking Send, with
// the submission itself deferred into the chain. The transfer cannot be
// withdrawn (no Token), so p always resumes at the commit (or
// grant-abandon) cycle.
func (n *Network) SendParked(p *sim.Proc, msg Msg) {
	req := n.newRequest(msg)
	req.p = p
	n.submit(req)
}

func (n *Network) newRequest(msg Msg) *request {
	if msg.Src < 0 || msg.Src >= n.nodes {
		panic(fmt.Sprintf("wireless: bad source node %d", msg.Src))
	}
	if k := len(n.reqFree); k > 0 {
		r := n.reqFree[k-1]
		n.reqFree = n.reqFree[:k-1]
		r.msg = msg
		r.start = n.eng.Now()
		r.state = reqPending
		r.committed = false
		r.attempts = 0
		r.retx = 0
		return r
	}
	return &request{n: n, msg: msg, start: n.eng.Now()}
}

// freeRequest returns a finished record to the pool. Only completion paths
// that left no aliases behind may call it: a request that ran to commit (or
// grant-abandon) was removed from every MAC queue before transmit, so the
// completing Send / async delivery holds the sole reference. Canceled
// requests are NEVER freed — the MAC structures still hold them (backlog
// entries are lazily skipped by state), and recycling would let a stale
// queue entry transmit a different message.
func (n *Network) freeRequest(r *request) {
	r.epoch++
	r.p = nil
	r.then = nil
	r.msg = Msg{} // drop the payload and the RMW Op closure
	n.reqFree = append(n.reqFree, r)
}

// submit hands a (re)transmission attempt to the MAC, which decides when
// it may occupy the channel. A sender whose transceiver is inside an
// outage window fails immediately instead of entering arbitration.
func (n *Network) submit(req *request) {
	if n.inj != nil && n.inj.Down(req.msg.Src, uint64(n.eng.Now())) {
		n.failSend(req)
		return
	}
	n.mac.Submit(req)
}

// failSend completes req as a fault-injected delivery failure without the
// message ever entering the MAC. The completion is delivered as an engine
// event in the same cycle so a blocking sender has parked before it is
// woken; the state guard lets a same-cycle withdrawal win.
func (n *Network) failSend(req *request) {
	n.eng.Schedule(0, func() {
		if req.state != reqPending {
			return
		}
		req.state = reqDone
		req.committed = false
		n.Energy.FaultedSends++
		req.resume()
	})
}

// failPending completes a queued request whose sender's transceiver has
// fail-stopped, from MAC sweep context (an engine event; the sender is
// already parked). The caller removes the record from its queue.
func (n *Network) failPending(req *request) {
	req.state = reqDone
	req.committed = false
	n.Energy.FaultedSends++
	req.resume()
}

// transmit starts req's transmission at slot (the current cycle). It is
// the grant point every MAC funnels into: the prepare hook may abandon the
// transfer, otherwise the channel goes busy for the message duration and
// the commit is scheduled. The MAC is called back at the protocol-relevant
// points (Granted / GrantAborted / TxScheduled).
func (n *Network) transmit(req *request, slot sim.Time) {
	if n.inj != nil && n.inj.Down(req.msg.Src, uint64(slot)) {
		// The sender's transceiver went down while the message was queued:
		// the grant is wasted, the channel stays free, and the send
		// completes as a fault-injected failure.
		req.state = reqDone
		req.committed = false
		n.Energy.FaultedSends++
		req.resume()
		n.mac.GrantAborted()
		return
	}
	if n.prepare != nil && !n.prepare(req.msg) {
		// Abandoned at grant: no transmission, channel still free.
		// The next deferred sender restarts in this very slot.
		req.state = reqDone
		req.committed = false
		n.Stats.SkippedGrants++
		req.resume()
		n.mac.GrantAborted()
		return
	}
	req.state = reqTransmitting
	dur := n.p.MsgCycles
	if req.msg.Kind == KindBulk {
		dur = n.p.BulkCycles
	}
	n.busyUntil = slot + dur
	n.Stats.BusyCycles += dur
	n.chargeTx(req)
	n.mac.Granted(req)
	var c *commitCont
	if k := len(n.commitFree); k > 0 {
		c = n.commitFree[k-1]
		n.commitFree = n.commitFree[:k-1]
	} else {
		c = &commitCont{n: n}
		c.fn = c.run
	}
	c.req = req
	n.eng.ScheduleAt(slot+dur, sim.PrioNormal, c.fn)
	n.mac.TxScheduled(slot + dur)
}

// commitCont is a recycled commit event: the end-of-transmission firing of
// transmit, pooled on the Network.
type commitCont struct {
	n   *Network
	req *request
	fn  func() // cached method value of run
}

func (c *commitCont) run() {
	n, req := c.n, c.req
	c.req = nil
	n.commitFree = append(n.commitFree, c)
	n.commit(req)
}

func (n *Network) commit(req *request) {
	if !n.ch.Ideal() {
		bits := MsgBits
		if req.msg.Kind == KindBulk {
			bits = BulkBits
		}
		if n.ch.Corrupts(n.chRng, req.msg.Src, bits) {
			// At least one receiver CRC-failed the frame and NACKed: no
			// BM applies it (the channel's total order stays consistent
			// because it is all-or-nothing per transmission). The frame
			// still occupied its cycles — BusyCycles and the energy
			// ledger already charged it at transmit.
			if req.retx < n.ch.MaxRetries() {
				req.retx++
				n.Energy.Retransmissions++
				req.state = reqPending
				// Through submit, not the MAC directly: an outage that
				// started mid-flight applies to the retransmission too.
				n.submit(req)
				return
			}
			// Budget exhausted: the send completes as a delivery failure
			// and the sender observes committed == false.
			n.Energy.DeliveryFailures++
			req.state = reqDone
			req.committed = false
			req.resume()
			return
		}
	}
	req.state = reqDone
	req.committed = true
	n.Stats.Messages++
	n.Stats.LatencySum += n.eng.Now() - req.start
	for _, fn := range n.subs {
		fn(req.msg, n.eng.Now())
	}
	req.resume()
}
