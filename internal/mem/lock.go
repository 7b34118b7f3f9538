package mem

// fifoLock is a FIFO mutual-exclusion lock in simulated time, held by one
// transaction at a time: a directory line's lock, or a memory-controller
// port. It holds no pointers. Waiting transactions form a list linked
// through txn.waitNext by id (see System.txns), so a directory entry with
// a lock in it stays plain data. The zero value is free.
type fifoLock struct {
	head, tail uint32 // ids of the oldest and newest waiters, 0 if none
	held       bool
}

// acquire grants l to t and runs t's pending step at the grant cycle:
// inline, with no event, when l is free; otherwise from the event a
// release schedules. Grants follow request order.
func (l *fifoLock) acquire(t *txn) {
	if !l.held {
		l.held = true
		t.step()
		return
	}
	if l.tail == 0 {
		l.head = t.id
	} else {
		t.s.txns[l.tail-1].waitNext = t.id
	}
	l.tail = t.id
}

// release hands l to its oldest waiter, whose step runs as an event at the
// current cycle, or frees l. Only the holder's transaction may call it.
func (l *fifoLock) release(s *System) {
	if !l.held {
		panic("mem: release of a free lock")
	}
	if l.head == 0 {
		l.held = false
		return
	}
	t := s.txns[l.head-1]
	l.head, t.waitNext = t.waitNext, 0
	if l.head == 0 {
		l.tail = 0
	}
	s.eng.Schedule(0, t.step)
}
