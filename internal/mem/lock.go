package mem

// fifoLock is a FIFO mutual-exclusion lock in simulated time, held by one
// transaction at a time: a directory line's lock, or a memory-controller
// port. It holds no pointers. Waiting transactions form a list doubly
// linked through txn.waitPrev and txn.waitNext by id (see System.txns), so
// a directory entry with a lock in it stays plain data. The zero value is
// free.
//
// The list is sorted by each waiter's position in the engine's event
// order, (txn.at, txn.key): the cycle its request reaches the lock and the
// sequence number of that arrival. A request issued while its line is held
// joins at issue, before it arrives (see transactAsync), so the list may
// end in waiters that have not arrived yet. Grants follow arrival order.
type fifoLock struct {
	head, tail uint32 // ids of the oldest and newest waiters, 0 if none
	held       bool
}

// acquire grants l to t and runs t's pending step at the grant cycle:
// inline, with no event, when l is free; otherwise t joins the waiters at
// its position.
func (l *fifoLock) acquire(t *txn) {
	if !l.held {
		l.held = true
		t.step()
		return
	}
	l.insert(t)
}

// insert links t in after the last waiter whose position does not follow
// t's. The scan starts at the tail, where nearly every request joins.
func (l *fifoLock) insert(t *txn) {
	txns := t.s.txns
	prev := l.tail
	for prev != 0 {
		p := txns[prev-1]
		if p.at < t.at || p.at == t.at && p.key <= t.key {
			break
		}
		prev = p.waitPrev
	}
	t.waitPrev = prev
	if prev == 0 {
		t.waitNext, l.head = l.head, t.id
	} else {
		p := txns[prev-1]
		t.waitNext, p.waitNext = p.waitNext, t.id
	}
	if t.waitNext == 0 {
		l.tail = t.id
	} else {
		txns[t.waitNext-1].waitPrev = t.id
	}
}

// release hands l on at the current cycle. Only the holder's transaction
// may call it, from its event under key: a waiter has arrived if its
// position precedes (now, key). The oldest waiter, if it has arrived, gets
// l, and its step runs at the current cycle, through the engine's
// trampoline when nothing could come between. Otherwise l goes free, and
// the oldest waiter's arrival becomes the event it would have been.
func (l *fifoLock) release(s *System, key uint64) {
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
	} else {
		s.txns[l.head-1].waitPrev = 0
	}
	if now := s.eng.Now(); t.at > now || t.at == now && t.key > key {
		l.held = false
		t.state = stepArrive
		s.eng.ScheduleReserved(t.at, t.key, t.step)
		return
	}
	s.eng.ScheduleNow(t.step)
}
