package mem

import (
	"fmt"
	"reflect"
	"testing"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

// TestFIFOLockGrants pins the lock's grant rule, which every directory
// transaction's event schedule depends on: a free acquire runs the step
// inline at the acquire cycle with no event, and each release with waiters
// grants the oldest one with exactly one event at the release cycle. One
// waiter is a recycled transaction whose id is lower than the waiter ahead
// of it, so the queue's id links do not follow creation order.
func TestFIFOLockGrants(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, noc.New(4, 2), DefaultParams(4))
	events := func() uint64 {
		st := eng.SchedStats()
		return st.WheelEvents + st.HeapEvents
	}
	var l fifoLock
	var trace []string

	// A transaction that holds the lock for hold cycles once granted, then
	// releases it; each release must schedule exactly one grant event when
	// someone waits and none otherwise.
	start := func(name string, hold sim.Time) *txn {
		tx := s.newTxn()
		tx.step = func() {
			trace = append(trace, fmt.Sprintf("grant %s@%d", name, eng.Now()))
			eng.Schedule(hold, func() {
				trace = append(trace, fmt.Sprintf("release %s@%d", name, eng.Now()))
				want := uint64(0)
				if l.head != 0 {
					want = 1
				}
				n, before := len(trace), events()
				l.release(s)
				if len(trace) != n {
					t.Errorf("release by %s granted the next waiter inline, want an event", name)
				}
				if got := events() - before; got != want {
					t.Errorf("release by %s scheduled %d events, want %d", name, got, want)
				}
			})
		}
		return tx
	}

	// early runs one uncontended round, and its txn is recycled as c.
	early := start("early", 1)
	a := start("a", 5)
	b := start("b", 3)
	d := start("d", 2)
	var c *txn
	eng.Schedule(1, func() { l.acquire(early) })
	eng.Schedule(3, func() { s.freeTxn(early) })

	eng.Schedule(10, func() {
		before := events()
		l.acquire(a)
		if len(trace) != 3 {
			t.Error("a free acquire did not run the step inline")
		}
		// The only event is the one a's step schedules for its release.
		if got := events() - before; got != 1 {
			t.Errorf("free acquire and a's step scheduled %d events, want 1", got)
		}
	})
	eng.Schedule(11, func() { l.acquire(b) })
	eng.Schedule(12, func() {
		c = start("c", 4)
		if c != early || c.id >= b.id {
			t.Errorf("c is not early's recycled txn (ids: early=%d b=%d c=%d)", early.id, b.id, c.id)
		}
		l.acquire(c)
	})
	eng.Schedule(13, func() { l.acquire(d) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"grant early@1", "release early@2",
		"grant a@10", "release a@15",
		"grant b@15", "release b@18",
		"grant c@18", "release c@22",
		"grant d@22", "release d@24",
	}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("grant trace = %v, want %v", trace, want)
	}
	if l != (fifoLock{}) {
		t.Errorf("lock after the last release = %+v, want free and empty", l)
	}
	for _, tx := range []*txn{a, b, c, d} {
		if tx.waitNext != 0 {
			t.Errorf("txn %d still links to %d after its grant", tx.id, tx.waitNext)
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
	l.release(s)
}
