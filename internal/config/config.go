// Package config captures the architecture configurations of the paper's
// evaluation as data: the general and WiSync parameters of Table 1, the
// four machine kinds of Table 2, and the memory/network sensitivity
// variants of Table 6.
package config

import (
	"fmt"

	"wisync/internal/channel"
	"wisync/internal/fault"
	"wisync/internal/sim"
	"wisync/internal/tone"
	"wisync/internal/wireless"
)

// Kind selects one of the four compared machines (Table 2).
type Kind int

// Machine kinds.
const (
	// Baseline is a plain manycore: CAS locks and a centralized
	// sense-reversing barrier over the cache hierarchy.
	Baseline Kind = iota
	// BaselinePlus adds virtual-tree broadcast in the NoC, MCS locks and
	// tournament barriers.
	BaselinePlus
	// WiSyncNoT is WiSync without the Tone channel: all synchronization
	// uses the wireless Data channel.
	WiSyncNoT
	// WiSync is the full design: Data channel plus Tone-channel barriers.
	WiSync
)

// Kinds lists all four configurations in presentation order.
var Kinds = []Kind{Baseline, BaselinePlus, WiSyncNoT, WiSync}

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case BaselinePlus:
		return "Baseline+"
	case WiSyncNoT:
		return "WiSyncNoT"
	case WiSync:
		return "WiSync"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// HasBM reports whether the configuration includes Broadcast Memories and
// the wireless Data channel.
func (k Kind) HasBM() bool { return k == WiSyncNoT || k == WiSync }

// HasTone reports whether the configuration includes the Tone channel.
func (k Kind) HasTone() bool { return k == WiSync }

// TreeBroadcast reports whether the NoC supports virtual-tree multicast.
func (k Kind) TreeBroadcast() bool { return k == BaselinePlus }

// Variant selects a Table 6 sensitivity configuration.
type Variant int

// Sensitivity variants (Table 6).
const (
	Default Variant = iota
	SlowNet
	SlowNetL2
	FastNet
	SlowBMEM
)

// Variants lists the Table 6 rows in order.
var Variants = []Variant{Default, SlowNet, SlowNetL2, FastNet, SlowBMEM}

func (v Variant) String() string {
	switch v {
	case Default:
		return "Default"
	case SlowNet:
		return "SlowNet"
	case SlowNetL2:
		return "SlowNet+L2"
	case FastNet:
		return "FastNet"
	case SlowBMEM:
		return "SlowBMEM"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config is a full machine configuration.
type Config struct {
	Kind  Kind
	Cores int
	// Seed drives all simulation randomness; same seed, same run.
	Seed uint64

	// Wired hierarchy (Table 1 / Table 6).
	L1RT       sim.Time
	L2RT       sim.Time
	MemRT      sim.Time
	HopLatency uint64
	L1Sets     int
	L1Ways     int
	MemCtrlOcc sim.Time

	// WiSync hardware (Table 1).
	BMRT      sim.Time
	BMEntries int
	Wireless  wireless.Params
	Tone      tone.Params

	// Budget, when nonzero, bounds a run's simulated cycles: the
	// machine's guarded run loop aborts with a structured core.BudgetError
	// once the clock reaches it. Result-relevant (a budgeted point may
	// yield an error row an unbounded run would not), so it participates
	// in the digest; the zero default serializes to nothing, keeping
	// every pre-budget digest unchanged.
	Budget sim.Time `json:",omitempty"`
	// Watchdog, when nonzero, is the progress-watchdog window in cycles:
	// when no workload operation completes for a full window the run
	// aborts with a structured core.LivelockError carrying the parked
	// cores' last-operation breadcrumbs. Digested like Budget.
	Watchdog sim.Time `json:",omitempty"`
	// Abort, when non-nil, is polled by the guarded run loop between run
	// chunks; a true return aborts the run with core.ErrAborted. It
	// threads server job deadlines and client cancellation into a point.
	// Host-side control only — it never alters simulated behavior before
	// the abort — so it is excluded from serialization and the digest.
	Abort *AbortCheck `json:"-"`
}

// AbortCheck wraps an abort-polling function behind a pointer so Config
// stays ==-comparable (func fields are not comparable; pointers are).
type AbortCheck struct{ F func() bool }

// New returns the default (Table 1) configuration of the given kind and
// core count. The paper evaluates 16-256 cores with a default of 64.
func New(kind Kind, cores int) Config {
	return Config{
		Kind:       kind,
		Cores:      cores,
		Seed:       1,
		L1RT:       2,
		L2RT:       6,
		MemRT:      110,
		HopLatency: 4,
		L1Sets:     256,
		L1Ways:     2,
		MemCtrlOcc: 8,
		BMRT:       2,
		BMEntries:  2048,
		Wireless:   wireless.DefaultParams(),
		Tone:       tone.DefaultParams(),
	}
}

// WithVariant applies a Table 6 sensitivity variant.
func (c Config) WithVariant(v Variant) Config {
	switch v {
	case SlowNet:
		c.HopLatency = 6
	case SlowNetL2:
		c.HopLatency = 6
		c.L2RT = 12
	case FastNet:
		c.HopLatency = 2
	case SlowBMEM:
		c.BMRT = 4
	}
	return c
}

// WithSeed returns the configuration with a different random seed.
func (c Config) WithSeed(seed uint64) Config {
	c.Seed = seed
	return c
}

// WithMAC returns the configuration with a different Data-channel
// arbitration protocol (the paper's carrier-sense backoff is the default;
// token passing and the traffic-adaptive switcher are the alternatives).
func (c Config) WithMAC(k wireless.MACKind) Config {
	c.Wireless.MAC = k
	return c
}

// WithChannel returns the configuration with a different channel-error
// model under the Data channel (the paper's ideal channel is the default).
func (c Config) WithChannel(p channel.Params) Config {
	c.Wireless.Channel = p
	return c
}

// WithFaults returns the configuration with a deterministic fault-
// injection plan (nil, or an empty plan: no faults). The plan is
// normalized in place so equal schedules serialize — and digest —
// identically.
func (c Config) WithFaults(p *fault.Plan) Config {
	p.Normalize()
	if p.Empty() {
		p = nil
	}
	c.Wireless.Faults = p
	return c
}

// WithBudget returns the configuration with a simulated-cycle budget
// (0 = unbounded).
func (c Config) WithBudget(b sim.Time) Config {
	c.Budget = b
	return c
}

// WithWatchdog returns the configuration with a progress-watchdog window
// (0 = disabled).
func (c Config) WithWatchdog(w sim.Time) Config {
	c.Watchdog = w
	return c
}

// Validate reports configuration errors. It is the single authority on
// what a runnable machine configuration looks like: the cmds and the sweep
// service all reject jobs through it, so a malformed job is a usage error
// or an HTTP 400 — never a panic inside a sweep worker.
func (c Config) Validate() error {
	if c.Kind < Baseline || c.Kind > WiSync {
		return fmt.Errorf("config: unknown machine kind %v", c.Kind)
	}
	if c.Cores < 1 || c.Cores > 256 {
		return fmt.Errorf("config: %d cores outside supported range [1,256]", c.Cores)
	}
	if c.L1RT == 0 || c.L2RT == 0 || c.MemRT == 0 {
		return fmt.Errorf("config: zero cache latency")
	}
	if c.L1Sets < 1 || c.L1Ways < 1 {
		return fmt.Errorf("config: L1 geometry %dx%d invalid", c.L1Sets, c.L1Ways)
	}
	if c.Kind.HasBM() && c.BMEntries == 0 {
		return fmt.Errorf("config: WiSync configuration with no BM entries")
	}
	if !c.Wireless.MAC.Valid() {
		return fmt.Errorf("config: unknown MAC protocol %v", c.Wireless.MAC)
	}
	if c.Wireless.Backoff > wireless.BackoffAdaptive {
		return fmt.Errorf("config: unknown backoff policy %d", c.Wireless.Backoff)
	}
	if c.Wireless.Defer > wireless.DeferContend {
		return fmt.Errorf("config: unknown defer policy %d", c.Wireless.Defer)
	}
	if c.Kind.HasBM() && (c.Wireless.MsgCycles == 0 || c.Wireless.BulkCycles == 0) {
		return fmt.Errorf("config: zero wireless message duration")
	}
	if err := c.Wireless.Channel.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := c.Wireless.Faults.Validate(c.Cores); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if c.Wireless.Faults != nil && !c.Kind.HasBM() {
		return fmt.Errorf("config: fault plan on wired configuration %v (no transceivers to fail)", c.Kind)
	}
	if c.Kind.HasTone() && c.Tone.TableSize < 1 {
		return fmt.Errorf("config: tone table size %d invalid", c.Tone.TableSize)
	}
	return nil
}
