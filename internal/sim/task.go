package sim

import "fmt"

// Task is a continuation-form simulation process: workload code written in
// completion-callback style. A Task has no goroutine and no blocking calls
// — it advances by scheduling continuations on the event queue (directly
// or through the async operations of the hardware models), so an entire
// workload of Tasks runs on whichever goroutine is driving the engine.
// Each suspension consumes one event sequence number (see the package
// comment).
type Task struct {
	eng    *Engine
	name   string
	reason string
	// reasonArg is an optional operand (a BM or memory address) attached by
	// SetReasonArg and rendered only if diagnostics fire, so the hot path
	// never formats a string.
	reasonArg    uint64
	reasonHasArg bool
	done         bool
	// idx is the task's place in its engine's live tasks.
	idx int
}

// GoTask starts fn as a new task. The task begins running at the current
// simulation time (after already-queued same-cycle events), and the start
// consumes one event sequence number.
//
// fn runs as an ordinary engine event; it issues its first asynchronous
// operation(s) and returns. The task must call Finish when its workload is
// complete, or Run will report it in the deadlock diagnostics.
func (e *Engine) GoTask(name string, fn func(*Task)) *Task {
	t := new(Task)
	e.StartTask(t, name, func() { fn(t) })
	return t
}

// StartTask starts t as GoTask starts a new task, with start as its body:
// t is reset first, so a Task its owner keeps from an earlier run starts
// afresh.
func (e *Engine) StartTask(t *Task, name string, start func()) {
	if e.stopped {
		panic("sim: GoTask after Shutdown")
	}
	*t = Task{eng: e, name: name, idx: len(e.tasks)}
	e.tasks = append(e.tasks, t)
	e.Schedule(0, start)
}

// Name returns the task name given to GoTask.
func (t *Task) Name() string { return t.name }

// Now returns the current simulation time.
func (t *Task) Now() Time { return t.eng.now }

// Finish retires the task. A task that never finishes before the event
// queue drains is reported by Run as deadlocked.
func (t *Task) Finish() {
	if t.done {
		panic("sim: Finish of already-finished task " + t.name)
	}
	t.done = true
	t.eng.dropTask(t)
}

// SetReason records a diagnostic label — typically the operation the task
// last issued — reported by deadlock diagnostics. Purely informational; a
// continuation-form model has no parked goroutine to name its wait, so the
// last-issued operation is the breadcrumb.
func (t *Task) SetReason(r string) { t.reason = r; t.reasonHasArg = false }

// SetReasonArg records a diagnostic label plus an operand address. The
// address is stored raw and only formatted if deadlock/livelock diagnostics
// actually fire, keeping the per-operation cost to two stores.
func (t *Task) SetReasonArg(r string, arg uint64) {
	t.reason = r
	t.reasonArg = arg
	t.reasonHasArg = true
}

// reasonLine renders the task's breadcrumb for diagnostics.
func (t *Task) reasonLine() string {
	if t.reason == "" {
		return "task not finished"
	}
	if !t.reasonHasArg {
		return t.reason
	}
	return fmt.Sprintf("%s addr=0x%x", t.reason, t.reasonArg)
}

// Sleep runs then after d cycles; see Engine.SleepThen for the contract.
func (t *Task) Sleep(d Time, then func()) { t.eng.SleepThen(d, then) }

// SleepThen arranges for then to run after d cycles, consuming exactly one
// event sequence number.
//
// It has a zero-cost fast path: when the continuation would be
// the very next event popped (nothing precedes it in the event order and
// the wake time is within the run horizon), no event is pushed at all —
// the clock advances inline and then is handed to the engine's trampoline
// slot, which the scheduler loop drains immediately after the current
// event returns. Chains of uncontended continuations therefore cost one
// function call each instead of a heap push and pop, without growing the
// stack.
//
// SleepThen must be called from event context (inside a callback event or
// a continuation), in tail position — the caller must do no simulation
// work after it returns.
func (e *Engine) SleepThen(d Time, then func()) {
	t := e.now + d
	if t < e.now {
		panic("sim: SleepThen overflows the clock")
	}
	if t <= e.limit && e.ahead == 0 {
		// At equal times this continuation's sequence is the largest, so
		// it only precedes the queue head on a strictly earlier time — or
		// the same time when the head is PrioLate and this continuation is
		// PrioNormal. A run's unrun members count as queued at the current
		// cycle.
		if head := e.q.first(); head == nil ||
			t < head.t || (t == head.t && head.key >= prioBit) {
			if e.cont != nil {
				panic("sim: SleepThen fast path with a continuation already pending")
			}
			e.seq++
			e.now = t
			e.cont = then
			return
		}
	}
	e.ScheduleAt(t, PrioNormal, then)
}
