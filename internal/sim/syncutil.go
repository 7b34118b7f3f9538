package sim

// WaitQueue is a FIFO list of suspended task continuations. Hardware models
// use it to suspend workload threads on a condition and resume them when
// the condition changes. The zero value is an empty queue ready to use.
//
// The backing array is reused: spin loops suspend and wake the same
// threads over and over, and re-growing the queue each round is measurable
// garbage on hot coherence lines.
type WaitQueue struct {
	fns []func()
	eng *Engine
}

// WaitFn enqueues the continuation fn to run when the queue is woken; the
// caller's task is suspended until fn fires.
func (q *WaitQueue) WaitFn(e *Engine, fn func()) {
	q.eng = e
	q.fns = append(q.fns, fn)
}

// Clear drops every waiter without waking it, keeping the queue's array:
// how a model takes back a queue that a run cut at its horizon left
// waiters in.
func (q *WaitQueue) Clear() {
	clear(q.fns)
	q.fns = q.fns[:0]
	q.eng = nil
}

// Len returns the number of waiters.
func (q *WaitQueue) Len() int { return len(q.fns) }

// WakeAll schedules every waiter after d cycles, in FIFO order; each wake
// consumes one event sequence number.
func (q *WaitQueue) WakeAll(d Time) {
	for i, fn := range q.fns {
		q.eng.Schedule(d, fn)
		q.fns[i] = nil
	}
	q.fns = q.fns[:0]
}
