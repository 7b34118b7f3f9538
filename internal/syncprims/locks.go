package syncprims

import "wisync/internal/mem"

// spinLock is a test-and-test&set lock over any Var backend: spin until
// free, then attempt an atomic grab. On a cache backend the spinning is
// local (cached copy) and the grab is a coherence RMW; on the BM backend
// the spinning is local-replica polling and the grab is a wireless T&S
// (the WiSync lock of Table 2).
type spinLock struct {
	f *Factory // owns the recycled acquire steps (task.go)
	v TaskVar
}

// mcsLock is the queue-based lock of Mellor-Crummey and Scott [31], used by
// Baseline+. Each thread spins on its own qnode line; lock handoff writes
// only the successor's line, so contention never storms the directory.
type mcsLock struct {
	f    *Factory // owns the recycled steps (task.go)
	tail uint64   // 0 = free, otherwise core+1
}

// newMCSLock reserves the tail line and, right after it, two lines per
// core for the qnode fields, so a qnode field's address is arithmetic on
// tail (locked and next) and the lock holds no per-core state.
func newMCSLock(f *Factory) *mcsLock {
	l := &mcsLock{f: f, tail: f.m.AllocLine()}
	f.m.AllocLines(2 * f.m.Cfg.Cores)
	return l
}

// locked is core i's qnode flag: nonzero while it waits for the lock.
func (l *mcsLock) locked(i int) uint64 { return l.tail + uint64(1+2*i)*mem.LineBytes }

// next is core i's qnode link: its successor's core+1, or 0.
func (l *mcsLock) next(i int) uint64 { return l.tail + uint64(2+2*i)*mem.LineBytes }
