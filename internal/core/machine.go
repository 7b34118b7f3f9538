// Package core assembles the WiSync manycore — the paper's primary
// contribution — and exposes the programming interface that workloads run
// against.
//
// A Machine instantiates one of the four Table 2 configurations: the wired
// substrate (mesh + MOESI hierarchy) is always present; WiSync
// configurations add the wireless Data channel, the replicated Broadcast
// Memory, and (for the full design) the Tone channel controller. Workloads
// run as Tasks, one per core, using plain cached memory operations and,
// on WiSync machines, the BM instruction set of Section 3.2: Load, Store,
// Bulk transfers, Test&Set, Fetch&Inc, Fetch&Add, CAS (with the WCB/AFB
// retry protocol of Figure 4), and the tone_st/tone_ld pair.
package core

import (
	"wisync/internal/bmem"
	"wisync/internal/config"
	"wisync/internal/mem"
	"wisync/internal/noc"
	"wisync/internal/sim"
	"wisync/internal/tone"
	"wisync/internal/wireless"
)

// Machine is one simulated manycore chip.
type Machine struct {
	Cfg  config.Config
	Eng  *sim.Engine
	Mesh *noc.Mesh
	Mem  *mem.System
	// Net, BM and Tone are nil on configurations without the respective
	// hardware (Table 2).
	Net  *wireless.Network
	BM   *bmem.BM
	Tone *tone.Controller

	addrCursor uint64
	// faults collects the per-core fault records of threads halted by a
	// fail-stopped transceiver (fault.go).
	faults []Fault
}

// NewMachine builds a machine for cfg. It panics on invalid configurations
// (these are programming errors in the harness, not runtime conditions).
// Long-running callers that receive configurations from the outside world
// use New, the error-returning variant, instead.
func NewMachine(cfg config.Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// New builds a machine for cfg, rejecting invalid configurations with an
// error rather than a panic, so a bad job config cannot crash a serving
// process.
func New(cfg config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	mesh := noc.New(cfg.Cores, cfg.HopLatency)
	mp := mem.Params{
		Cores:         cfg.Cores,
		L1RT:          cfg.L1RT,
		L2RT:          cfg.L2RT,
		MemRT:         cfg.MemRT,
		MemCtrlOcc:    cfg.MemCtrlOcc,
		L1Sets:        cfg.L1Sets,
		L1Ways:        cfg.L1Ways,
		TreeBroadcast: cfg.Kind.TreeBroadcast(),
	}
	m := &Machine{
		Cfg:  cfg,
		Eng:  eng,
		Mesh: mesh,
		Mem:  mem.New(eng, mesh, mp),
		// Reserve low addresses; workload variables start at 1 MB.
		addrCursor: 1 << 20,
	}
	if cfg.Kind.HasBM() {
		m.Net = wireless.New(eng, cfg.Cores, cfg.Wireless)
		bp := bmem.DefaultParams()
		bp.RT = cfg.BMRT
		bp.Entries = cfg.BMEntries
		m.BM = bmem.New(eng, m.Net, cfg.Cores, bp)
	}
	if cfg.Kind.HasTone() {
		m.Tone = tone.New(eng, m.BM, m.Net, cfg.Tone)
	}
	return m, nil
}

// Outcome is what a finished machine reports: the cycle the run ended at
// and every counter a row, reference file or figure reads. Runners embed
// it in their results.
type Outcome struct {
	Cycles sim.Time
	// DataChannelUtil is the wireless Data channel utilization (0 for
	// wired configurations).
	DataChannelUtil float64
	// Mem and Net expose the machine's protocol counters. The golden-
	// conformance suite pins them exactly, so any change to transaction
	// ordering — not just to end-to-end cycle counts — is detected.
	// Net is zero on wired configurations.
	Mem mem.Stats
	Net wireless.Stats
	// MAC holds the Data channel's per-protocol arbitration counters
	// (grants, collisions, token waits, mode switches). It lives outside
	// Net so the golden rendering of wireless.Stats is independent of the
	// MAC catalog.
	MAC wireless.MACStats
	// Energy is the Data channel's transceiver energy ledger and
	// channel-error delivery counters (zero on wired configurations;
	// reliability counters zero under the default ideal channel).
	Energy wireless.EnergyStats
	// Sched reports the engine's scheduling internals (timing-wheel hits,
	// heap fallbacks, recycled-step reuse). Unlike every field above it
	// describes simulator mechanics, not simulated behavior, and the
	// reference suites exclude it.
	Sched sim.SchedStats
	// Faults lists the workload threads halted by a fail-stopped
	// transceiver, in the order they halted (nil without a fault plan):
	// the run completed in a degraded configuration rather than
	// livelocking.
	Faults []Fault
}

// Finish snapshots the machine's Outcome, then hands its reusable storage
// — the event queue's arrays, the L1 tag array, the Broadcast Memory's
// entry table — to the machines built after it in this process. Runners
// call it once the run is over; the machine must not be used afterwards.
// Only storage crosses, zeroed when it is taken: continuation pools,
// counters and anything that points into this machine stay behind, so a
// later point runs exactly as it would on a fresh machine.
func (m *Machine) Finish() Outcome {
	o := Outcome{
		Cycles:          m.Eng.Now(),
		DataChannelUtil: m.DataChannelUtilization(),
		Mem:             m.Mem.Stats,
		Sched:           m.Eng.SchedStats(),
		Faults:          m.faults,
	}
	if m.Net != nil {
		o.Net = m.Net.Stats
		o.MAC = m.Net.MACCounters()
		o.Energy = m.Net.Energy
	}
	m.Eng.Release()
	m.Mem.Release()
	if m.BM != nil {
		m.BM.Release()
	}
	return o
}

// AllocLine reserves one fresh cache line of regular memory and returns the
// address of its first word. Separate calls never share a line, avoiding
// accidental false sharing between synchronization variables.
func (m *Machine) AllocLine() uint64 { return m.AllocLines(1) }

// AllocLines reserves n consecutive fresh cache lines and returns the
// address of the first; line i starts at the result plus i*mem.LineBytes.
func (m *Machine) AllocLines(n int) uint64 {
	a := m.addrCursor
	m.addrCursor += uint64(n) * mem.LineBytes
	return a
}

// AllocArray reserves a contiguous array of n 64-bit words and returns its
// base address.
func (m *Machine) AllocArray(n int) uint64 {
	a := m.addrCursor
	bytes := uint64(n) * 8
	lines := (bytes + mem.LineBytes - 1) / mem.LineBytes
	m.addrCursor += lines * mem.LineBytes
	return a
}

// Run executes the simulation to completion. When the configuration sets
// a cycle budget, a progress watchdog, or an abort hook, the guarded loop
// (fault.go) sweeps the run first: same event order, but hangs become
// structured BudgetError/LivelockError/ErrAborted results.
func (m *Machine) Run() error {
	if m.guarded() {
		if err := m.runGuarded(^sim.Time(0), false); err != nil {
			return err
		}
	}
	return m.Eng.Run()
}

// RunUntil executes the simulation up to cycle t and retires remaining
// tasks (used by open-ended throughput kernels). Like Run, it sweeps
// through the guarded loop first when the configuration asks for budget,
// watchdog, or abort enforcement.
func (m *Machine) RunUntil(t sim.Time) error {
	if m.guarded() {
		if err := m.runGuarded(t, true); err != nil {
			return err
		}
	}
	m.Eng.RunUntil(t)
	m.Eng.Shutdown()
	return nil
}

// Now returns the current cycle.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// DataChannelUtilization returns the fraction of cycles the wireless Data
// channel has been busy so far (0 on wired configurations).
func (m *Machine) DataChannelUtilization() float64 {
	if m.Net == nil {
		return 0
	}
	return m.Net.Stats.Utilization(m.Eng.Now())
}
