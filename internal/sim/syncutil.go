package sim

// WaitQueue is a FIFO list of suspended waiters — parked processes and/or
// task continuations. Hardware models use it to block workload threads on
// a condition and wake them when the condition changes; because both
// waiter styles live in one queue, a spin list serves blocking Procs and
// continuation-form Tasks with identical FIFO semantics. The zero value is
// an empty queue ready to use.
//
// Waking consumes one event sequence number per waiter regardless of
// style (Proc.Wake and Engine.Schedule produce events with identical
// (time, priority, sequence) keys), so the two styles are interchangeable
// without affecting simulated results.
//
// The queue is a head-indexed deque over a reused backing array: spin loops
// park and wake the same threads over and over, and re-growing the queue
// each round is measurable garbage on hot coherence lines.
type WaitQueue struct {
	ws   []waiter
	head int
	eng  *Engine
}

// waiter is one suspended entry: a parked process or a continuation.
type waiter struct {
	p  *Proc
	fn func()
}

func (w waiter) wake(e *Engine, d Time) {
	if w.p != nil {
		w.p.Wake(d)
		return
	}
	e.Schedule(d, w.fn)
}

// Wait parks p on the queue until some other event wakes it.
func (q *WaitQueue) Wait(p *Proc, reason string) {
	q.eng = p.eng
	q.ws = append(q.ws, waiter{p: p})
	p.Park(reason)
}

// WaitFn enqueues the continuation fn to run when the queue is woken. It
// is the task-style counterpart of Wait: the caller's task is considered
// suspended until fn fires.
func (q *WaitQueue) WaitFn(e *Engine, fn func()) {
	q.eng = e
	q.ws = append(q.ws, waiter{fn: fn})
}

// Len returns the number of waiters.
func (q *WaitQueue) Len() int { return len(q.ws) - q.head }

// WakeAll wakes every waiter after d cycles, in FIFO order.
func (q *WaitQueue) WakeAll(d Time) {
	for i := q.head; i < len(q.ws); i++ {
		q.ws[i].wake(q.eng, d)
		q.ws[i] = waiter{}
	}
	q.ws = q.ws[:0]
	q.head = 0
}

// WakeOne wakes the oldest waiter after d cycles. It reports whether a
// waiter was woken.
func (q *WaitQueue) WakeOne(d Time) bool {
	if q.Len() == 0 {
		return false
	}
	w := q.ws[q.head]
	q.ws[q.head] = waiter{}
	q.head++
	q.ws, q.head = compact(q.ws, q.head)
	w.wake(q.eng, d)
	return true
}

// compact reclaims a deque's dead prefix once it reaches half the backing
// array, keeping memory proportional to live waiters rather than to total
// traffic through the queue. Amortized O(1) per operation.
func compact[T any](ps []T, head int) ([]T, int) {
	if head*2 < len(ps) {
		return ps, head
	}
	n := copy(ps, ps[head:])
	var zero T
	for i := n; i < len(ps); i++ {
		ps[i] = zero
	}
	return ps[:n], 0
}

// Remove drops p from the queue without waking it. It reports whether p was
// found. The caller is responsible for waking p by other means.
func (q *WaitQueue) Remove(p *Proc) bool {
	for i := q.head; i < len(q.ws); i++ {
		if q.ws[i].p == p {
			copy(q.ws[i:], q.ws[i+1:])
			q.ws[len(q.ws)-1] = waiter{}
			q.ws = q.ws[:len(q.ws)-1]
			if q.head == len(q.ws) {
				q.ws = q.ws[:0]
				q.head = 0
			}
			return true
		}
	}
	return false
}

// Resource is a FIFO mutual-exclusion resource in simulation time, used to
// model structures that serve one transaction at a time (a directory line,
// an L2 bank, a memory controller port). The zero value is free. Like
// WaitQueue, the waiter list is a head-indexed deque over a reused array.
type Resource struct {
	owner *Proc
	q     []*Proc
	head  int
	// BusyCycles accumulates total time the resource was held, for
	// utilization statistics. Updated on Release.
	BusyCycles Time
	acquiredAt Time
}

// Acquire blocks p until it owns the resource. Ownership is granted in
// request order.
func (r *Resource) Acquire(p *Proc, reason string) {
	if r.owner == nil {
		r.owner = p
		r.acquiredAt = p.eng.now
		return
	}
	r.q = append(r.q, p)
	p.Park(reason)
	// The releaser set r.owner = p before waking us.
	r.acquiredAt = p.eng.now
}

// Release hands the resource to the oldest waiter, or frees it. Only the
// current owner may call Release.
func (r *Resource) Release(p *Proc) {
	if r.owner != p {
		panic("sim: Release by non-owner")
	}
	r.BusyCycles += p.eng.now - r.acquiredAt
	if r.head == len(r.q) {
		r.owner = nil
		r.q = r.q[:0]
		r.head = 0
		return
	}
	next := r.q[r.head]
	r.q[r.head] = nil
	r.head++
	r.q, r.head = compact(r.q, r.head)
	r.owner = next
	next.Wake(0)
}

// QueueLen returns the number of processes waiting for the resource.
func (r *Resource) QueueLen() int { return len(r.q) - r.head }

// Held reports whether the resource is currently owned.
func (r *Resource) Held() bool { return r.owner != nil }
