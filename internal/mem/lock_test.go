package mem

import (
	"fmt"
	"reflect"
	"testing"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

// TestFIFOLockGrants pins the lock's grant rules, which every directory
// transaction's event schedule depends on. A free arrival takes the lock
// inline, with no event. A request issued while the lock is held joins the
// waiters at its arrival position and queues no event. A release grants
// the oldest waiter that has arrived, consuming one sequence number: from
// the engine's trampoline when the grant would be the next event, as one
// queued event otherwise. A release whose oldest waiter has not arrived
// frees the lock and turns that waiter's arrival into one event.
func TestFIFOLockGrants(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, noc.New(4, 2), DefaultParams(4))
	events := func() uint64 {
		st := eng.SchedStats()
		return st.WheelEvents + st.HeapEvents
	}
	var l fifoLock
	var trace []string

	// newTx makes a transaction that holds the lock for hold cycles once
	// granted and releases it from an event whose key it keeps, as serve
	// does. Its arrival event, if it gets one, takes the lock or joins.
	type release struct {
		events, seqs uint64 // what one release queues and consumes
	}
	var releases []release
	newTx := func(name string, hold sim.Time) *txn {
		tx := s.newTxn()
		tx.step = func() {
			if tx.state == stepArrive {
				tx.state = stepHeld
				l.acquire(tx)
				return
			}
			trace = append(trace, fmt.Sprintf("grant %s@%d", name, eng.Now()))
			tx.key = eng.Reserve()
			eng.ScheduleReserved(eng.Now()+hold, tx.key, func() {
				trace = append(trace, fmt.Sprintf("release %s@%d", name, eng.Now()))
				n, before, k := len(trace), events(), eng.Reserve()
				l.release(s, tx.key)
				if len(trace) != n {
					t.Errorf("release by %s ran a step inline", name)
				}
				releases = append(releases, release{events() - before, eng.Reserve() - k - 1})
			})
		}
		return tx
	}
	// issue sends tx to the lock, due d cycles from now, as transactAsync
	// does: joining the waiters at issue while the lock is held.
	issue := func(tx *txn, d sim.Time) {
		tx.at, tx.key = eng.Now()+d, eng.Reserve()
		if l.held {
			before := events()
			tx.state = stepHeld
			l.insert(tx)
			if events() != before {
				t.Errorf("a request to the held lock queued an event")
			}
			return
		}
		tx.state = stepArrive
		eng.ScheduleReserved(tx.at, tx.key, tx.step)
	}

	a, b, c, e := newTx("a", 5), newTx("b", 2), newTx("c", 3), newTx("e", 1)
	eng.Schedule(10, func() {
		before := events()
		tx := a
		tx.state = stepArrive
		tx.at, tx.key = eng.Now(), eng.Reserve()
		tx.step()
		if len(trace) != 1 {
			t.Error("a free arrival did not take the lock inline")
		}
		// The only event is the one a's step schedules for its release.
		if got := events() - before; got != 1 {
			t.Errorf("a free arrival and a's step queued %d events, want 1", got)
		}
	})
	// b and c join during a's hold, c first in arrival order though issued
	// second; e is still in flight when b releases.
	eng.Schedule(11, func() { issue(b, 2); issue(c, 1) })
	eng.Schedule(12, func() { issue(e, 10) })
	// An event queued at c's release cycle after it, so b's grant there
	// cannot go through the trampoline.
	eng.Schedule(16, func() {
		eng.Schedule(2, func() { trace = append(trace, fmt.Sprintf("other@%d", eng.Now())) })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"grant a@10", "release a@15",
		"grant c@15", "release c@18", "other@18",
		"grant b@18", "release b@20",
		"grant e@22", "release e@23",
	}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("grant trace = %v, want %v", trace, want)
	}
	wantRel := []release{
		{0, 1}, // a: c has arrived; granted from the trampoline
		{1, 1}, // c: b has arrived; granted by an event behind "other"
		{1, 0}, // b: e is in flight; the lock goes free, e's arrival is queued
		{0, 0}, // e: no waiters
	}
	if !reflect.DeepEqual(releases, wantRel) {
		t.Errorf("releases (events queued, sequence numbers consumed) = %v, want %v", releases, wantRel)
	}
	if l != (fifoLock{}) {
		t.Errorf("lock after the last release = %+v, want free and empty", l)
	}
	for _, tx := range []*txn{a, b, c, e} {
		if tx.waitNext != 0 || tx.waitPrev != 0 {
			t.Errorf("txn %d still links to %d and %d after its grant", tx.id, tx.waitPrev, tx.waitNext)
		}
	}
}

// TestFIFOLockPanicsOnFreeRelease pins the misuse check.
func TestFIFOLockPanicsOnFreeRelease(t *testing.T) {
	s := New(sim.NewEngine(1), noc.New(4, 2), DefaultParams(4))
	defer func() {
		if recover() == nil {
			t.Fatal("release of a free lock did not panic")
		}
	}()
	var l fifoLock
	l.release(s, 0)
}
