package syncprims

import "wisync/internal/core"

// spinLock is a test-and-test&set lock over any Var backend: spin until
// free, then attempt an atomic grab. On a cache backend the spinning is
// local (cached copy) and the grab is a coherence RMW; on the BM backend
// the spinning is local-replica polling and the grab is a wireless T&S
// (the WiSync lock of Table 2).
type spinLock struct {
	v TaskVar
	// steps are the per-core recycled continuation state machines (see
	// task.go), allocated lazily on first use.
	steps []*spinStep
}

// mcsLock is the queue-based lock of Mellor-Crummey and Scott [31], used by
// Baseline+. Each thread spins on its own qnode line; lock handoff writes
// only the successor's line, so contention never storms the directory.
type mcsLock struct {
	tail uint64 // 0 = free, otherwise core+1
	// per-core qnode fields, each on its own cache line
	locked []uint64
	next   []uint64
	// steps are the per-core recycled continuation state machines (see
	// task.go), allocated lazily on first use.
	steps []*mcsStep
}

func newMCSLock(m *core.Machine) *mcsLock {
	n := m.Cfg.Cores
	l := &mcsLock{
		tail:   m.AllocLine(),
		locked: make([]uint64, n),
		next:   make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		l.locked[i] = m.AllocLine()
		l.next[i] = m.AllocLine()
	}
	return l
}
