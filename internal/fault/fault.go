// Package fault is the deterministic fault-injection subsystem: a
// config-addressed plan of transceiver outages and token-loss events that
// the wireless Network and its MACs consult at global-queue commit points.
//
// A Plan is declarative data — JSON from a -faults flag or a server job —
// validated once and carried inside wireless.Params, so it is covered by
// config.CanonicalJSON and config.Digest exactly like every other
// architectural parameter: two sweep points with different plans memoize
// separately, and a faulty run is a pure function of (seed, config). The
// plan consumes no randomness and schedules no events of its own;
// injection is a pure predicate over simulated time evaluated where the
// Network already serializes decisions (submit and grant commit points),
// so a faulty run stays bit-identical at any -workers count.
//
// Two outage shapes exist. A transient outage (For > 0) silences the
// node's transceiver for a bounded window: sends issued inside the window
// fail immediately (the sender sees committed == false and may retry
// after the window). A fail-stop outage (For == 0) kills the transceiver
// permanently: the MACs detect it, exclude the node from contention, and
// the token MAC regenerates the token when the dead node would have
// received it. TokenLoss entries model a corrupted token handoff at a
// given cycle: the next token delivery at or after that cycle is lost and
// recovered by the same bounded-timeout regeneration path.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Outage silences one node's transceiver starting at cycle At. For == 0
// means fail-stop (permanent); For > 0 bounds the outage to cycles
// [At, At+For).
type Outage struct {
	Node int    `json:"node"`
	At   uint64 `json:"at"`
	For  uint64 `json:"for,omitempty"`
}

// FailStop reports whether the outage is permanent.
func (o Outage) FailStop() bool { return o.For == 0 }

// Plan is a validated, canonicalized fault schedule. The zero value (and
// a nil *Plan) injects nothing.
type Plan struct {
	// Outages lists transceiver outages, canonically sorted by (At, Node,
	// For).
	Outages []Outage `json:"outages,omitempty"`
	// TokenLoss lists cycles at which a token handoff is corrupted: the
	// next token delivery at or after each cycle is lost and must be
	// regenerated by timeout. Canonically sorted ascending.
	TokenLoss []uint64 `json:"token_loss,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Outages) == 0 && len(p.TokenLoss) == 0)
}

// Normalize sorts the plan into its canonical order so equal schedules
// serialize — and therefore digest — identically.
func (p *Plan) Normalize() {
	if p == nil {
		return
	}
	sort.Slice(p.Outages, func(i, j int) bool {
		a, b := p.Outages[i], p.Outages[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.For < b.For
	})
	sort.Slice(p.TokenLoss, func(i, j int) bool { return p.TokenLoss[i] < p.TokenLoss[j] })
}

// Validate reports plan errors for a machine with the given node count.
func (p *Plan) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	failed := 0
	seen := make(map[int]bool)
	for _, o := range p.Outages {
		if o.Node < 0 || o.Node >= nodes {
			return fmt.Errorf("fault: outage node %d outside [0,%d)", o.Node, nodes)
		}
		if o.FailStop() && !seen[o.Node] {
			seen[o.Node] = true
			failed++
		}
	}
	// At least one node must stay alive forever, or no recovery protocol
	// can make progress.
	if nodes > 0 && failed >= nodes {
		return fmt.Errorf("fault: all %d nodes fail-stop; at least one must survive", nodes)
	}
	return nil
}

// Parse decodes a plan from JSON, normalizes it, and rejects unknown
// fields so a typo'd plan cannot silently inject nothing.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: invalid plan: %w", err)
	}
	p.Normalize()
	return &p, nil
}

// ParseFlag resolves a -faults flag value: "@path" reads the plan from a
// JSON file, anything else is inline JSON. An empty value is no plan.
func ParseFlag(s string) (*Plan, error) {
	if s == "" {
		return nil, nil
	}
	data := []byte(s)
	if strings.HasPrefix(s, "@") {
		var err error
		data, err = os.ReadFile(s[1:])
		if err != nil {
			return nil, fmt.Errorf("fault: reading plan: %w", err)
		}
	}
	return Parse(data)
}

// window is one outage interval [at, until) on a node's timeline; a
// fail-stop outage has until == ^uint64(0).
type window struct {
	at, until uint64
}

// Injector answers fault queries for one run. It is pure lookup state —
// no randomness, no events — built once at Network construction.
type Injector struct {
	// windows[node] is that node's outage intervals, sorted by start.
	windows map[int][]window
	// failAt[node] is the earliest fail-stop cycle, or ^uint64(0).
	failAt map[int]uint64
	// tokenLoss is the ascending token-loss schedule; cursor is the next
	// unconsumed entry.
	tokenLoss []uint64
	cursor    int
}

// NewInjector compiles a plan. A nil or empty plan returns nil: callers
// guard every query with a nil check, so a no-fault run evaluates no
// predicates at all.
func NewInjector(p *Plan) *Injector {
	if p.Empty() {
		return nil
	}
	inj := &Injector{
		windows:   make(map[int][]window),
		failAt:    make(map[int]uint64),
		tokenLoss: append([]uint64(nil), p.TokenLoss...),
	}
	const forever = ^uint64(0)
	for _, o := range p.Outages {
		w := window{at: o.At, until: forever}
		if !o.FailStop() {
			w.until = o.At + o.For
			if w.until < o.At { // overflow clamps to forever
				w.until = forever
			}
		} else if cur, ok := inj.failAt[o.Node]; !ok || o.At < cur {
			inj.failAt[o.Node] = o.At
		}
		inj.windows[o.Node] = append(inj.windows[o.Node], w)
	}
	for n := range inj.windows {
		ws := inj.windows[n]
		sort.Slice(ws, func(i, j int) bool { return ws[i].at < ws[j].at })
	}
	sort.Slice(inj.tokenLoss, func(i, j int) bool { return inj.tokenLoss[i] < inj.tokenLoss[j] })
	return inj
}

// Down reports whether the node's transceiver is silenced at cycle now
// (inside any outage window, transient or fail-stop).
func (inj *Injector) Down(node int, now uint64) bool {
	for _, w := range inj.windows[node] {
		if w.at > now {
			return false
		}
		if now < w.until {
			return true
		}
	}
	return false
}

// FailStopped reports whether the node is permanently dead at cycle now.
func (inj *Injector) FailStopped(node int, now uint64) bool {
	at, ok := inj.failAt[node]
	return ok && now >= at
}

// TokenLost consumes and reports a pending token-loss event: true when a
// scheduled loss cycle is at or before now and not yet consumed. Events
// are consumed in order, one per call, so each plan entry loses exactly
// one handoff.
func (inj *Injector) TokenLost(now uint64) bool {
	if inj.cursor < len(inj.tokenLoss) && inj.tokenLoss[inj.cursor] <= now {
		inj.cursor++
		return true
	}
	return false
}
