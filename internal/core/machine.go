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
	"sync"

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

	// cut marks a run RunUntil stopped at its horizon, with operations
	// still in flight.
	cut bool

	// What follows stays with the machine from one point to the next (see
	// Finish). tasks holds every Task the machine has spawned, in spawn
	// order; the first spawned of them are this point's. names caches
	// SpawnAllTasks' thread names. kept is the workload state the machine
	// keeps (kept.go). hw holds the layers the exported pointers above
	// point at.
	tasks   []*Task
	spawned int
	names   []string
	kept    []kept
	hw      *hardware
}

// hardware is a machine's layers, each rebuilt in place by its Init for
// every point the machine runs. A wired point leaves the wireless layers
// unused until a point that has the hardware runs on the machine.
type hardware struct {
	mesh *noc.Mesh
	eng  sim.Engine
	mem  mem.System
	net  wireless.Network
	bm   bmem.BM
	tone tone.Controller
}

// machines holds finished machines for New to run points on. One pool
// serves every core count: a machine's arrays only grow, so a sweep that
// mixes core counts keeps one machine per worker, sized for its largest
// point, rather than one per core count it has run.
var machines sync.Pool

// maxPooledLineBytes bounds the line storage a pooled machine keeps. Core
// counts bound every other array a machine keeps, but the line store grows
// with the lines a point touches, which a point's iterations or vector
// length make without limit: app:dedup on Baseline+ keeps 1.5 MB at 64
// cores, the most of any point in the paper's sweeps, and 3.8 MB at 256
// cores, or 6.4 MB at 16 iterations. A machine past the bound is left to
// the collector, so that one large point does not make every later point
// on its machine carry the storage.
const maxPooledLineBytes = 2 << 20

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
// process. It rebuilds a machine an earlier point finished, when the
// process has one, and allocates one otherwise; either way the machine
// runs exactly as a new one would.
func New(cfg config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, _ := machines.Get().(*Machine)
	if m == nil {
		m = new(Machine)
	}
	m.init(cfg)
	return m, nil
}

// init makes m a machine for cfg, rebuilding its layers in place and
// keeping its tasks and thread names for SpawnTask to reuse.
func (m *Machine) init(cfg config.Config) {
	hw := m.hw
	if hw == nil {
		hw = new(hardware)
	}
	if hw.mesh == nil || hw.mesh.Nodes() != cfg.Cores || hw.mesh.HopLatency() != cfg.HopLatency {
		hw.mesh = noc.New(cfg.Cores, cfg.HopLatency)
	}
	hw.eng.Init(cfg.Seed)
	hw.mem.Init(&hw.eng, hw.mesh, mem.Params{
		Cores:         cfg.Cores,
		L1RT:          cfg.L1RT,
		L2RT:          cfg.L2RT,
		MemRT:         cfg.MemRT,
		MemCtrlOcc:    cfg.MemCtrlOcc,
		L1Sets:        cfg.L1Sets,
		L1Ways:        cfg.L1Ways,
		TreeBroadcast: cfg.Kind.TreeBroadcast(),
	})
	*m = Machine{
		Cfg:  cfg,
		Eng:  &hw.eng,
		Mesh: hw.mesh,
		Mem:  &hw.mem,
		// Reserve low addresses; workload variables start at 1 MB.
		addrCursor: 1 << 20,
		tasks:      m.tasks,
		names:      m.names,
		kept:       m.kept,
		hw:         hw,
	}
	if cfg.Kind.HasBM() {
		hw.net.Init(&hw.eng, cfg.Cores, cfg.Wireless)
		bp := bmem.DefaultParams()
		bp.RT = cfg.BMRT
		bp.Entries = cfg.BMEntries
		hw.bm.Init(&hw.eng, &hw.net, cfg.Cores, bp)
		m.Net, m.BM = &hw.net, &hw.bm
	}
	if cfg.Kind.HasTone() {
		hw.tone.Init(&hw.eng, m.BM, m.Net, cfg.Tone)
		m.Tone = &hw.tone
	}
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

// Finish snapshots the machine's Outcome, whose fault records become the
// caller's, and hands the machine back for a later point to run on (see
// New). Runners call it once a run is over, and only then: a machine a
// guard stopped, or whose run panicked, is left to the collector. The
// machine must not be used after Finish.
//
// A machine held for a later point keeps nothing of the workload it ran:
// its tasks drop their bodies and continuations, the workload state the
// point took is released, the configuration (whose abort hook a caller
// may have bound to its job) is dropped, and a run cut at its horizon has
// its layers rebuilt at once, which takes back what was in flight,
// cleared. A machine whose line store outgrew maxPooledLineBytes is not
// held.
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
	m.faults = nil
	for _, t := range m.tasks[:m.spawned] {
		t.release()
	}
	release(m.kept)
	if m.cut {
		m.init(m.Cfg)
	}
	m.Cfg = config.Config{}
	if m.Mem.KeptLineBytes() <= maxPooledLineBytes {
		machines.Put(m)
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
	m.cut = true
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
