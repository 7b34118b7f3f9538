package kernels

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
	"wisync/internal/syncprims"
)

// CASKind selects one of the lock-free CAS kernels of Table 3.
type CASKind int

// CAS kernel kinds.
const (
	// FIFO enqueues and dequeues nodes from a shared queue: CASes split
	// between a head and a tail pointer.
	FIFO CASKind = iota
	// LIFO pushes and pops a shared stack: all CASes target the top
	// pointer.
	LIFO
	// ADD only inserts nodes taken from private pools: all CASes target
	// the tail pointer.
	ADD
)

func (k CASKind) String() string {
	switch k {
	case FIFO:
		return "FIFO"
	case LIFO:
		return "LIFO"
	case ADD:
		return "ADD"
	}
	return fmt.Sprintf("CASKind(%d)", int(k))
}

// CASResult reports a CAS kernel execution: the finished machine's
// Outcome, whose Cycles is the run's duration, and the CAS counts.
type CASResult struct {
	core.Outcome
	Successes uint64
	Failures  uint64
	// Per1000 is the Figure 9 metric: successful CASes per 1000 cycles.
	Per1000 float64
}

// CASKernel runs one of the lock-free kernels for the given duration:
// every thread executes csInstr instructions of private work between
// operations on the shared structure, each operation being a load of the
// shared pointer, a couple of private node updates, and a CAS retried until
// it succeeds (Section 6). Figure 9 compares Baseline and WiSync only —
// the kernels use no locks or barriers, so the other configurations are
// redundant — but any configuration can be passed.
func CASKernel(cfg config.Config, kind CASKind, csInstr int, duration sim.Time) CASResult {
	m := core.NewMachine(cfg)
	k := core.MachineState[casKernel](m)
	if k.bodyFn == nil {
		k.bodyFn = k.body
	}
	f := syncprims.NewFactory(m)
	// Shared pointers. FIFO has distinct head and tail; LIFO and ADD hit
	// a single word.
	k.vars = append(k.vars[:0], f.NewTaskVar(1))
	if kind == FIFO {
		k.vars = append(k.vars, f.NewTaskVar(1))
	}
	// Per-thread private node lines (pool updates touch own cache).
	k.nodeLines = k.nodeLines[:0]
	for range cfg.Cores {
		k.nodeLines = append(k.nodeLines, m.AllocLine())
	}
	k.cfg, k.kind, k.csInstr = cfg, kind, csInstr
	k.successes, k.failures = 0, 0
	m.SpawnAllTasks(k.bodyFn)
	if err := m.RunUntil(duration); err != nil {
		panic(err)
	}
	successes, failures := k.successes, k.failures
	return CASResult{Outcome: m.Finish(), Successes: successes, Failures: failures,
		Per1000: 1000 * float64(successes) / float64(duration)}
}

// casKernel is CASKernel's shared state, which the machine keeps across
// points: the shared pointers, the threads' node lines and the CAS counts.
type casKernel struct {
	cfg                 config.Config
	kind                CASKind
	vars                []syncprims.TaskVar
	nodeLines           []uint64
	csInstr             int
	successes, failures uint64
	bodyFn              func(*core.Task)
}

func (k *casKernel) Release() {
	k.cfg = config.Config{}
	clear(k.vars)
}

func (k *casKernel) body(t *core.Task) {
	s := core.TaskState[casStep](t)
	s.start(t, k)
	// Stagger thread starts across one work period.
	t.Instr(s.rng.Intn(k.csInstr + 1))
	s.period()
}

// casStep is one task's recycled state machine for the CAS-kernel work
// period: private work, node preparation, then the lock-free update loop
// with exponential backoff. The target variable, the backoff state, the
// loaded value and the random stream are struct fields and the
// continuations are method values cached once, and the task keeps the
// step from one point to the next, so the steady state allocates nothing.
// The period never finishes on its own — RunUntil's horizon cuts the run.
type casStep struct {
	t   *core.Task
	k   *casKernel
	rng sim.Rand

	op      int
	backoff int
	v       syncprims.TaskVar

	afterWriteFn func()
	onLoadFn     func(uint64)
	onCASFn      func(bool)
}

// start readies the step for t's point. It counts the step as a fresh
// one, as a new task makes it.
func (s *casStep) start(t *core.Task, k *casKernel) {
	t.M.Eng.StepPoolMiss()
	if s.onCASFn == nil {
		s.afterWriteFn = s.afterWrite
		s.onLoadFn = s.onLoad
		s.onCASFn = s.onCAS
	}
	s.t, s.k, s.op, s.backoff, s.v = t, k, 0, 0, nil
	s.rng = *sim.NewRand(uint64(t.Core)*2654435761 + k.cfg.Seed + uint64(k.kind)*7919)
}

func (s *casStep) Release() { s.t, s.k, s.v = nil, nil, nil }

// period runs one work period: the private work, jittered by +-12% (with
// the staggered start CASKernel charges, this keeps threads from arriving
// at the shared pointer in lockstep convoys that no real system exhibits),
// the target pointer choice (FIFO alternates enqueue at the tail and
// dequeue at the head; LIFO/ADD use one pointer), and the private node
// write.
func (s *casStep) period() {
	if s.op > 0 {
		// Reuse of the recycled struct; the first period ran on the
		// fresh step counted in start.
		s.t.M.Eng.StepPoolHit()
	}
	k := s.k
	s.t.Instr(k.csInstr - k.csInstr/8 + s.rng.Intn(k.csInstr/4+1))
	s.v = k.vars[0]
	if k.kind == FIFO && s.op%2 == 1 {
		s.v = k.vars[1]
	}
	s.op++
	s.t.Write(k.nodeLines[s.t.Core], s.rng.Uint64(), s.afterWriteFn)
}

func (s *casStep) afterWrite() {
	// Prepare the private node. ADD builds a full node from the pool each
	// time; LIFO's pop half and FIFO's dequeue half touch less private
	// state.
	switch {
	case s.k.kind == ADD:
		s.t.Instr(8)
	case s.op%2 == 1:
		s.t.Instr(2)
	default:
		s.t.Instr(4)
	}
	s.backoff = 8
	s.attempt()
}

func (s *casStep) attempt() { s.v.LoadTask(s.t, s.onLoadFn) }

func (s *casStep) onLoad(old uint64) {
	s.v.CASTask(s.t, old, old+1, s.onCASFn)
}

// onCAS ends an update attempt. A failure backs off exponentially before
// retrying: without backoff a deep retry queue is a stable congestion
// attractor — every queued CAS is stale by the time it is granted, and
// throughput collapses to one success per queue rotation.
func (s *casStep) onCAS(ok bool) {
	if ok {
		s.k.successes++
		s.period()
		return
	}
	s.k.failures++
	s.t.Instr(s.backoff + s.rng.Intn(s.backoff))
	if s.backoff < 2048 {
		s.backoff *= 2
	}
	s.attempt()
}
