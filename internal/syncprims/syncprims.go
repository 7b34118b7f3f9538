// Package syncprims implements the synchronization primitives the paper's
// evaluation compares (Table 2), against a backend-neutral interface:
//
//   - Baseline: CAS spinlocks and a centralized sense-reversing barrier
//     over the cache hierarchy.
//   - Baseline+: MCS queue locks [31] and tournament barriers [31], plus
//     the virtual-tree NoC broadcast (enabled inside package mem).
//   - WiSyncNoT: test&set locks and fetch&inc barriers in Broadcast Memory
//     over the wireless Data channel.
//   - WiSync: the same locks, but barriers through the Tone channel.
//
// It also provides the higher-level idioms of Section 4.3: OR-barriers
// (eurekas), producer-consumer channels (with Bulk transfers), reductions,
// and multicast.
//
// Every operation takes a completion callback, run at the cycle the
// operation completes, so primitives serve workloads running as
// core.Tasks. Workload code obtains primitives from a Factory, which picks
// the
// implementation matching the machine's configuration, including the
// paper's overflow rule: when the BM fills up, variables transparently
// spill to regular cached memory (Section 4.2, as exercised by dedup and
// fluidanimate).
package syncprims

import "wisync/internal/core"

// TaskBarrier is a barrier: then runs once all participants have arrived.
type TaskBarrier interface {
	WaitTask(t *core.Task, then func())
}

// TaskLock is a mutual exclusion lock; then runs once the lock is held
// (AcquireTask) or released (ReleaseTask).
type TaskLock interface {
	AcquireTask(t *core.Task, then func())
	ReleaseTask(t *core.Task, then func())
}

// TaskVar is a 64-bit shared synchronization variable.
type TaskVar interface {
	LoadTask(t *core.Task, then func(uint64))
	StoreTask(t *core.Task, v uint64, then func())
	// CASTask performs compare-and-swap; then reports whether it swapped.
	CASTask(t *core.Task, old, nv uint64, then func(bool))
	// FetchAddTask atomically adds delta; then receives the previous value.
	FetchAddTask(t *core.Task, delta uint64, then func(uint64))
	// SpinUntilTask spins (hardware-faithfully for the backend) until cond
	// holds; then receives the satisfying value.
	SpinUntilTask(t *core.Task, cond func(uint64) bool, then func(uint64))
	// InBM reports whether the variable lives in Broadcast Memory.
	InBM() bool
}
