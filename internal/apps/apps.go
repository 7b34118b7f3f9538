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
	"wisync/internal/syncprims"
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

// Result reports one application execution: the finished machine's
// Outcome and the application's Broadcast Memory spills.
type Result struct {
	core.Outcome
	// Spills counts BM allocations that fell back to cached memory.
	Spills int
}

// DataUtilPct returns the Data-channel utilization in percent (Table 5).
func (r Result) DataUtilPct() float64 { return 100 * r.DataChannelUtil }

// Run executes the profile on the given configuration: one appTask
// (task.go) per core interprets the profile.
func Run(cfg config.Config, p Profile) Result {
	m := core.NewMachine(cfg)
	r := core.MachineState[appRun](m)
	if r.bodyFn == nil {
		r.bodyFn = r.body
	}
	r.cfg, r.p = cfg, p
	f := syncprims.NewFactory(m)
	if p.BarriersPerIter > 0 {
		r.barrier = f.NewTaskBarrier(nil)
	}
	r.locks = r.locks[:0]
	for range p.NumLocks {
		r.locks = append(r.locks, f.NewTaskLock())
	}
	if p.ReductionsPerIter > 0 {
		r.red = f.NewReducer(0)
	}
	r.shared = 0
	if p.SharedLines > 0 {
		r.shared = m.AllocArray(p.SharedLines * 8)
	}
	r.lockData = r.lockData[:0]
	for range max(p.NumLocks, 1) {
		r.lockData = append(r.lockData, m.AllocLine())
	}

	m.SpawnAllTasks(r.bodyFn)
	if err := m.Run(); err != nil {
		// Wrap rather than format: the harness recover preserves the error
		// chain so callers can classify the failure (budget, livelock,
		// abort, deadlock) with errors.Is/As.
		panic(fmt.Errorf("apps: %s on %s: %w", p.Name, cfg.Kind, err))
	}
	spills := f.Spills
	return Result{Outcome: m.Finish(), Spills: spills}
}

// appRun is what Run shares among a point's appTasks, which the machine
// keeps across points: the configuration and profile, the primitives, the
// shared footprint and lock data lines, and the task body as a cached
// method value.
type appRun struct {
	cfg      config.Config
	p        Profile
	barrier  syncprims.TaskBarrier // nil when the profile has no barriers
	locks    []syncprims.TaskLock
	red      *syncprims.Reducer // nil when the profile has no reductions
	shared   uint64
	lockData []uint64
	bodyFn   func(*core.Task)
}

func (r *appRun) Release() {
	r.cfg, r.p = config.Config{}, Profile{}
	r.barrier, r.red = nil, nil
	clear(r.locks)
}

func (r *appRun) body(t *core.Task) {
	a := core.TaskState[appTask](t)
	a.init(t, r, r.cfg.Seed*1000003+uint64(t.Core))
	a.start()
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
