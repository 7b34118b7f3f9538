package core

import (
	"errors"
	"fmt"

	"wisync/internal/sim"
)

// This file holds the graceful-degradation machinery: per-core fault
// records for threads halted by a fail-stopped transceiver, and the
// guarded run loop that converts budget overruns, livelocks, and external
// cancellation into structured errors instead of hangs.

// Fault records one workload thread halted by the fault-injection
// subsystem: its transceiver fail-stopped, so the BM operation named in Op
// could never complete and the thread was retired instead of spinning.
type Fault struct {
	Core  int    `json:"core"`
	PID   uint16 `json:"pid"`
	Op    string `json:"op"`
	Cycle uint64 `json:"cycle"`
}

func (f Fault) String() string {
	return fmt.Sprintf("core%d/pid%d %s @%d", f.Core, f.PID, f.Op, f.Cycle)
}

// recordFault appends one fault record; deterministic because guards fire
// at fixed (time, sequence) positions in the event order.
func (m *Machine) recordFault(core int, pid uint16, op string) {
	m.faults = append(m.faults, Fault{
		Core: core, PID: pid, Op: op, Cycle: uint64(m.Eng.Now()),
	})
}

// ErrAborted reports that a guarded run was cancelled through the
// config.AbortCheck hook (a serving process's job deadline or client
// disconnect).
var ErrAborted = errors.New("core: run aborted")

// BudgetError reports that the simulation was still live when it reached
// the configured cycle budget. Now is the swept-to cycle at which the
// budget tripped, which is the budget itself, not the last event's cycle.
// Parked holds the last-operation breadcrumb of every live thread at the
// cutoff.
type BudgetError struct {
	Budget sim.Time
	Now    sim.Time
	Parked []string
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: cycle budget %d exhausted at cycle %d, %d thread(s) live: %v",
		e.Budget, e.Now, len(e.Parked), e.Parked)
}

// LivelockError reports that no workload-visible progress counter moved
// for a full watchdog window while threads were still live — the
// structured form of a hang (for example a retry storm that never
// drains). Now is the swept-to cycle at which the window closed, not the
// last event's cycle, which stalls while every thread computes. Parked
// holds the last-operation breadcrumbs.
type LivelockError struct {
	Window sim.Time
	Now    sim.Time
	Parked []string
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("core: no progress for %d cycles (livelock) at cycle %d, %d thread(s) live: %v",
		e.Window, e.Now, len(e.Parked), e.Parked)
}

// guardChunk is the guarded run's check interval: budget, watchdog, and
// abort conditions are evaluated every guardChunk cycles. Detection
// latency is bounded by one chunk; the simulated results are unaffected
// because RunUntil preserves exact event order.
const guardChunk sim.Time = 4096

// guarded reports whether Run must use the guarded loop.
func (m *Machine) guarded() bool {
	return m.Cfg.Budget > 0 || m.Cfg.Watchdog > 0 || m.Cfg.Abort != nil
}

// progressCounter sums the workload-visible operation counters the
// watchdog treats as progress: committed channel messages and abandoned
// grants, BM loads and stores, fault-injected send failures (a thread
// legitimately retrying through a transient outage is making progress
// toward its end), and the cache-hierarchy transaction counters. BM RMW
// attempts are deliberately excluded — a retry storm that only ever
// re-executes failing RMWs is exactly the livelock the watchdog exists to
// catch.
func (m *Machine) progressCounter() uint64 {
	var c uint64
	if m.Net != nil {
		c += m.Net.Stats.Messages + m.Net.Stats.SkippedGrants + m.Net.Energy.FaultedSends
	}
	if m.BM != nil {
		c += m.BM.Stats.Loads + m.BM.Stats.Stores
	}
	ms := &m.Mem.Stats
	c += ms.L1Hits + ms.L1Misses + ms.Transactions + ms.Invalidations +
		ms.Forwards + ms.MemFetches + ms.Evictions
	return c
}

// runGuarded sweeps the simulation in guardChunk-cycle windows up to cut,
// checking the abort hook, the cycle budget and the progress watchdog
// between windows. Chunking uses RunBounded, which never advances the
// clock past the last executed event, so a run that no guard stops is
// bit-identical to an unguarded one: same event order, same final cycle.
// A guard trip returns its structured error after the live threads'
// breadcrumbs are captured and the engine is shut down. Otherwise the
// sweep ends with nil once every thread has finished, once it reaches
// cut, or, for Run (until false), once the queue drains with threads still
// parked; the engine's own Run or RunUntil then finishes the run as the
// unguarded path does, reporting that deadlock or advancing the clock to
// the cut. For RunUntil the horizon-cut kernels expect threads to be live
// at cut, so reaching it is success and a budget at or past it cannot
// trip.
func (m *Machine) runGuarded(cut sim.Time, until bool) error {
	var (
		lastCount = m.progressCounter()
		// horizon is the swept-to time; the watchdog measures elapsed
		// simulated time against it (Now() stalls when events are sparse).
		horizon      = m.Eng.Now()
		lastProgress = horizon
		budget       = m.Cfg.Budget
	)
	if budget >= cut {
		budget = 0
	}
	for horizon < cut {
		if m.Cfg.Abort != nil && m.Cfg.Abort.F != nil && m.Cfg.Abort.F() {
			return m.halt(ErrAborted)
		}
		horizon = min(horizon+guardChunk, cut)
		if budget > 0 {
			horizon = min(horizon, budget)
		}
		m.Eng.RunBounded(horizon)
		if m.Eng.Pending() == 0 && (m.Eng.Live() == 0 || !until) {
			return nil
		}
		if budget > 0 && horizon >= budget {
			return m.halt(&BudgetError{Budget: budget, Now: horizon, Parked: m.Eng.Breadcrumbs()})
		}
		if m.Cfg.Watchdog > 0 {
			if c := m.progressCounter(); c != lastCount {
				lastCount, lastProgress = c, horizon
			} else if horizon-lastProgress >= m.Cfg.Watchdog {
				return m.halt(&LivelockError{Window: m.Cfg.Watchdog, Now: horizon, Parked: m.Eng.Breadcrumbs()})
			}
		}
	}
	return nil
}

// halt shuts the engine down and returns err, which its caller builds
// first so that it holds the breadcrumbs Shutdown clears.
func (m *Machine) halt(err error) error {
	m.Eng.Shutdown()
	return err
}
