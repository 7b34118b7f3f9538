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

// Faults returns the per-core fault records accumulated during the run, in
// the order the threads halted.
func (m *Machine) Faults() []Fault { return m.faults }

// ErrAborted reports that a guarded run was cancelled through the
// config.AbortCheck hook (a serving process's job deadline or client
// disconnect).
var ErrAborted = errors.New("core: run aborted")

// BudgetError reports that the simulation was still live when it reached
// the configured cycle budget. Parked holds the last-operation breadcrumb
// of every live thread at the cutoff.
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
// drains). Parked holds the last-operation breadcrumbs.
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

// runGuarded executes the simulation in guardChunk-cycle windows, checking
// the abort hook, the cycle budget, and the progress watchdog between
// windows. Chunking uses RunBounded, which never advances the clock past
// the last executed event, so a run that finishes within its budget is
// bit-identical to an unguarded Run — same event order, same final cycle.
// On any guard trip the live threads' breadcrumbs are captured before
// Shutdown (which clears them) and returned in the error.
// runGuardedUntil is the guarded form of RunUntil: the horizon-cut
// kernels expect threads to still be live at cycle t, so reaching t is
// success, while the abort hook, a budget below t, and the progress
// watchdog still convert hangs into structured errors along the way.
func (m *Machine) runGuardedUntil(t sim.Time) error {
	var (
		lastCount    = m.progressCounter()
		horizon      = m.Eng.Now()
		lastProgress = horizon
	)
	budget := m.Cfg.Budget
	if budget >= t {
		budget = 0 // the cut at t lands first; the budget cannot trip
	}
	for horizon < t {
		if m.Cfg.Abort != nil && m.Cfg.Abort.F != nil && m.Cfg.Abort.F() {
			m.Eng.Shutdown()
			return ErrAborted
		}
		horizon += guardChunk
		if horizon > t {
			horizon = t
		}
		if budget > 0 && horizon > budget {
			horizon = budget
		}
		if err := m.Eng.RunBounded(horizon); err != nil {
			m.Eng.Shutdown()
			return err
		}
		if m.Eng.Live() == 0 && m.Eng.Pending() == 0 {
			break // every thread finished before the cut
		}
		if budget > 0 && horizon >= budget {
			e := &BudgetError{Budget: budget, Now: m.Eng.Now(), Parked: m.Eng.Breadcrumbs()}
			m.Eng.Shutdown()
			return e
		}
		if m.Cfg.Watchdog > 0 {
			if c := m.progressCounter(); c != lastCount {
				lastCount = c
				lastProgress = horizon
			} else if horizon-lastProgress >= m.Cfg.Watchdog {
				e := &LivelockError{Window: m.Cfg.Watchdog, Now: m.Eng.Now(), Parked: m.Eng.Breadcrumbs()}
				m.Eng.Shutdown()
				return e
			}
		}
	}
	// Advance the clock to the exact horizon, as the unguarded RunUntil
	// does (no events remain at or below t).
	if err := m.Eng.RunUntil(t); err != nil {
		return err
	}
	m.Eng.Shutdown()
	return nil
}

func (m *Machine) runGuarded() error {
	var (
		lastCount = m.progressCounter()
		// horizon is the swept-to time; the watchdog measures elapsed
		// simulated time against it (Now() stalls when events are sparse).
		horizon      = m.Eng.Now()
		lastProgress = horizon
	)
	for {
		if m.Cfg.Abort != nil && m.Cfg.Abort.F != nil && m.Cfg.Abort.F() {
			m.Eng.Shutdown()
			return ErrAborted
		}
		horizon += guardChunk
		if m.Cfg.Budget > 0 && horizon > m.Cfg.Budget {
			horizon = m.Cfg.Budget
		}
		if err := m.Eng.RunBounded(horizon); err != nil {
			m.Eng.Shutdown()
			return err
		}
		if m.Eng.Live() == 0 && m.Eng.Pending() == 0 {
			return nil
		}
		if m.Eng.Pending() == 0 {
			// The queue drained with threads still parked: a genuine
			// deadlock, reported exactly as the unguarded Run would.
			err := m.Eng.CheckDeadlock()
			m.Eng.Shutdown()
			return err
		}
		if m.Cfg.Budget > 0 && horizon >= m.Cfg.Budget {
			e := &BudgetError{Budget: m.Cfg.Budget, Now: m.Eng.Now(), Parked: m.Eng.Breadcrumbs()}
			m.Eng.Shutdown()
			return e
		}
		if m.Cfg.Watchdog > 0 {
			if c := m.progressCounter(); c != lastCount {
				lastCount = c
				lastProgress = horizon
			} else if horizon-lastProgress >= m.Cfg.Watchdog {
				e := &LivelockError{Window: m.Cfg.Watchdog, Now: m.Eng.Now(), Parked: m.Eng.Breadcrumbs()}
				m.Eng.Shutdown()
				return e
			}
		}
	}
}
