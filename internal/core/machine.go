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
// (fault.go) runs instead: same event order, but hangs become structured
// BudgetError/LivelockError/ErrAborted results.
func (m *Machine) Run() error {
	if m.guarded() {
		return m.runGuarded()
	}
	return m.Eng.Run()
}

// RunUntil executes the simulation up to cycle t and retires remaining
// tasks (used by open-ended throughput kernels). Like Run, it switches
// to the guarded loop when the configuration asks for budget, watchdog,
// or abort enforcement.
func (m *Machine) RunUntil(t sim.Time) error {
	if m.guarded() {
		return m.runGuardedUntil(t)
	}
	if err := m.Eng.RunUntil(t); err != nil {
		return err
	}
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
