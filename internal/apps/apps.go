// Package apps models the paper's full-application evaluation (Section
// 7.4): the complete PARSEC and SPLASH-2 suites on 64 cores.
//
// Running the real binaries requires an x86 full-system simulator, so each
// application is replaced by a synthetic thread-parallel program whose
// synchronization profile — compute grain and arrival jitter, barrier
// frequency, lock count/contention/hold times, reductions, shared-memory
// footprint — is calibrated so the published per-application speedups of
// Figure 10 and the channel utilizations of Table 5 are reproduced in
// shape. The synthetic programs exercise the real machinery end to end:
// locks and barriers come from package syncprims and run over the real
// MOESI hierarchy or the real wireless BM, so the speedups are emergent,
// not scripted. See docs/ARCHITECTURE.md, "Substitutions and ablations",
// substitution 2.
package apps

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/mem"
	"wisync/internal/sim"
	"wisync/internal/syncprims"
	"wisync/internal/wireless"
)

// Profile describes one application's synchronization behavior. Each of
// the app's threads runs Iterations of: jittered compute, shared-footprint
// reads, lock/unlock critical sections, reduction updates, and barriers.
type Profile struct {
	Name  string
	Suite string

	Iterations int
	// ComputeMean is the cycles of local computation per iteration,
	// jittered multiplicatively by +-Jitter.
	ComputeMean int
	Jitter      float64
	// Barriers per iteration (the barrier-bound apps hit several with
	// little work between).
	BarriersPerIter int
	// Locks: LockOpsPerIter acquire/release pairs spread over NumLocks
	// locks (1 = a serialized hot lock), holding HoldCycles inside the
	// critical section plus one shared-line write.
	LockOpsPerIter int
	NumLocks       int
	HoldCycles     int
	// ReductionsPerIter fetch&add updates to a global accumulator.
	ReductionsPerIter int
	// SharedReadsPerIter reads over a shared footprint of SharedLines
	// cache lines (background coherence traffic).
	SharedReadsPerIter int
	SharedLines        int
}

// Result reports one application execution.
type Result struct {
	Profile Profile
	Cfg     config.Config
	Cycles  sim.Time
	// DataUtilPct is Data-channel utilization in percent (Table 5).
	DataUtilPct float64
	// Spills counts BM allocations that fell back to cached memory.
	Spills int
	// Mem, Net and MAC expose the machine's protocol counters, so the
	// reference suite pins every counter, not just the headline cycles.
	// Net/MAC are zero on wired configurations.
	Mem mem.Stats
	Net wireless.Stats
	MAC wireless.MACStats
	// Energy is the Data channel's transceiver energy ledger and
	// channel-error delivery counters (see kernels.Result).
	Energy wireless.EnergyStats
	// Sched reports the engine's scheduling internals (timing-wheel hits,
	// heap fallbacks, recycled-step reuse). Unlike every field above it
	// describes simulator mechanics, not simulated behavior, and the
	// reference suite excludes it.
	Sched sim.SchedStats
	// Faults lists the workload threads halted by a fail-stopped
	// transceiver (nil without a fault plan); see kernels.Result.
	Faults []core.Fault
}

func (r Result) String() string {
	return fmt.Sprintf("%-13s %-10s %9d cycles  util %.2f%%",
		r.Profile.Name, r.Cfg.Kind, r.Cycles, r.DataUtilPct)
}

// Run executes the profile on the given configuration: one appTask
// (task.go) per core interprets the profile.
func Run(cfg config.Config, p Profile) Result {
	m := core.NewMachine(cfg)
	f := syncprims.NewFactory(m)
	var barrier syncprims.TaskBarrier
	if p.BarriersPerIter > 0 {
		barrier = f.NewTaskBarrier(nil)
	}
	locks := make([]syncprims.TaskLock, p.NumLocks)
	for i := range locks {
		locks[i] = f.NewTaskLock()
	}
	var red *syncprims.Reducer
	if p.ReductionsPerIter > 0 {
		red = f.NewReducer(0)
	}
	var shared uint64
	if p.SharedLines > 0 {
		shared = m.AllocArray(p.SharedLines * 8)
	}
	lockData := make([]uint64, max(p.NumLocks, 1))
	for i := range lockData {
		lockData[i] = m.AllocLine()
	}

	m.SpawnAllTasks(func(t *core.Task) {
		newAppTask(t, &p, barrier, locks, red, shared, lockData,
			cfg.Seed*1000003+uint64(t.Core)).start()
	})
	if err := m.Run(); err != nil {
		// Wrap rather than format: the harness recover preserves the error
		// chain so callers can classify the failure (budget, livelock,
		// abort, deadlock) with errors.Is/As.
		panic(fmt.Errorf("apps: %s on %s: %w", p.Name, cfg.Kind, err))
	}
	r := Result{
		Profile:     p,
		Cfg:         cfg,
		Cycles:      m.Now(),
		DataUtilPct: 100 * m.DataChannelUtilization(),
		Spills:      f.Spills,
		Mem:         m.Mem.Stats,
		Sched:       m.Eng.SchedStats(),
	}
	if m.Net != nil {
		r.Net = m.Net.Stats
		r.MAC = m.Net.MACCounters()
		r.Energy = m.Net.Energy
	}
	r.Faults = m.Faults()
	return r
}

// Speedups runs the profile on all four configurations and returns the
// speedup of each over Baseline (Figure 10's metric).
func Speedups(base config.Config, p Profile) map[config.Kind]float64 {
	out := make(map[config.Kind]float64, len(config.Kinds))
	var baseline float64
	for _, k := range config.Kinds {
		cfg := base
		cfg.Kind = k
		r := Run(cfg, p)
		if k == config.Baseline {
			baseline = float64(r.Cycles)
			out[k] = 1
			continue
		}
		out[k] = baseline / float64(r.Cycles)
	}
	return out
}
