package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestSameCyclePriority(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.ScheduleAt(5, PrioLate, func() { got = append(got, "late") })
	e.ScheduleAt(5, PrioNormal, func() { got = append(got, "normal") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "normal" || got[1] != "late" {
		t.Fatalf("priority order = %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(3, PrioNormal, func() {})
	})
	_ = e.Run()
}

// TestDeterminism runs five tasks that sleep a random number of cycles and
// then take turns through a FIFO critical section; two runs from the same
// seed must log the same order and cycles.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		// A FIFO lock in continuation form: a free acquire runs inline, a
		// release hands the lock to the oldest waiter one event later.
		held := false
		var waiters []func()
		acquire := func(then func()) {
			if !held {
				held = true
				then()
				return
			}
			waiters = append(waiters, then)
		}
		release := func() {
			if len(waiters) == 0 {
				held = false
				return
			}
			next := waiters[0]
			waiters = waiters[1:]
			e.Schedule(0, next)
		}
		for i := 0; i < 5; i++ {
			e.GoTask(fmt.Sprintf("p%d", i), func(task *Task) {
				task.Sleep(Time(e.Rand().Intn(4)), func() {
					acquire(func() {
						log = append(log, fmt.Sprintf("%d@%d", i, task.Now()))
						task.Sleep(3, func() {
							release()
							task.Finish()
						})
					})
				})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 5 || len(a) != len(b) {
		t.Fatalf("lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.GoTask("stuck", func(task *Task) { task.SetReason("never woken") })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck: never woken" {
		t.Fatalf("Parked = %v", de.Parked)
	}
	e.Shutdown()
}

func TestRunUntilAndShutdown(t *testing.T) {
	e := NewEngine(1)
	var steps int
	e.GoTask("worker", func(task *Task) {
		var step func()
		step = func() {
			steps++
			task.Sleep(10, step)
		}
		task.Sleep(10, step)
	})
	e.RunUntil(55)
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
	if e.Now() != 55 {
		t.Fatalf("Now = %d, want 55", e.Now())
	}
	if e.Live() != 1 {
		t.Fatalf("Live = %d before Shutdown, want 1", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown", e.Live())
	}
}

func TestWaitQueue(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []string
	for i := 0; i < 3; i++ {
		e.GoTask(fmt.Sprintf("w%d", i), func(task *Task) {
			task.Sleep(Time(i), func() { // deterministic enqueue order
				q.WaitFn(e, func() {
					order = append(order, task.Name())
					task.Finish()
				})
			})
		})
	}
	e.Schedule(10, func() {
		if q.Len() != 3 {
			t.Errorf("Len = %d, want 3", q.Len())
		}
		q.WakeAll(0)
		if q.Len() != 0 {
			t.Errorf("Len = %d after WakeAll", q.Len())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w0", "w1", "w2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(7).Uint64() == NewRand(8).Uint64() {
		t.Fatal("different seeds produced identical first value")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(3)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(100, 0.25, 1)
		if v < 75 || v > 125 {
			t.Fatalf("Jitter = %v outside [75,125]", v)
		}
	}
	if v := r.Jitter(0.5, 0.9, 1); v != 1 {
		t.Fatalf("Jitter floor = %v, want 1", v)
	}
}

func TestForkIndependentStreams(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams start identically")
	}
}

// TestEventIsThreeWords pins the event record at 24 bytes: a time, a packed
// (priority, sequence) key and one callback.
func TestEventIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("event is %d bytes, want 24", got)
	}
}

// TestScheduleNowGrantsLikeSchedule0: ScheduleNow consumes one sequence
// number and runs fn where Schedule(0, fn) would: from the trampoline when
// that event would be next, with no event queued, and as one queued event
// when a PrioNormal event at this cycle, a run member, or an earlier
// ScheduleNow stands before it.
func TestScheduleNowGrantsLikeSchedule0(t *testing.T) {
	e := NewEngine(1)
	var got []string
	log := func(s string) func() { return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) } }
	queued := func() uint64 { st := e.SchedStats(); return st.WheelEvents + st.HeapEvents }
	// check runs step in an event at cycle at and reports the events it
	// queued and the sequence numbers it consumed besides them.
	check := func(at Time, name string, wantEvents, wantSeqs uint64, step func()) {
		e.ScheduleAt(at, PrioNormal, func() {
			q, s := queued(), e.seq
			step()
			if dq, ds := queued()-q, e.seq-s; dq != wantEvents || ds != wantSeqs {
				t.Errorf("%s: queued %d events and consumed %d sequence numbers, want %d and %d", name, dq, ds, wantEvents, wantSeqs)
			}
		})
	}
	// Alone in its cycle, with only a PrioLate event and a later event
	// queued: from the trampoline, ahead of the late event.
	e.ScheduleAt(10, PrioLate, log("late"))
	e.ScheduleAt(11, PrioNormal, log("next"))
	check(10, "alone", 0, 1, func() { e.ScheduleNow(log("grant")) })
	// Behind a PrioNormal event queued at the same cycle: queued.
	check(20, "behind a queued event", 1, 1, func() { e.ScheduleNow(log("grant")) })
	e.ScheduleAt(20, PrioNormal, log("other"))
	// Two in one callback: the first from the trampoline, the second
	// queued behind it.
	check(30, "twice", 1, 2, func() {
		e.ScheduleNow(log("first"))
		e.ScheduleNow(log("second"))
	})
	// Inside a run with members still to come: queued.
	check(40, "in a run", 1, 1, func() {
		e.RunAhead(1)
		e.ScheduleNow(log("grant"))
		e.RunAhead(0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"grant@10", "late@10", "next@11",
		"other@20", "grant@20",
		"first@30", "second@30",
		"grant@40",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestScheduleReserved: an event scheduled under a reserved key dispatches
// where an event scheduled at the reservation would have, ahead of events
// scheduled for the same cycle after it. An older key than the newest
// goes to the heap even inside the wheel horizon; the newest key goes to
// the wheel.
func TestScheduleReserved(t *testing.T) {
	e := NewEngine(1)
	var got []string
	log := func(s string) func() { return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) } }
	old := e.Reserve()
	e.Schedule(5, log("later key"))
	e.ScheduleReserved(5, old, log("reserved"))
	if st := e.SchedStats(); st.WheelEvents != 1 || st.HeapEvents != 1 {
		t.Errorf("after an old key: %+v, want 1 wheel event and 1 heap event", st)
	}
	newest := e.Reserve()
	e.ScheduleReserved(7, newest, log("newest"))
	if st := e.SchedStats(); st.WheelEvents != 2 || st.HeapEvents != 1 {
		t.Errorf("after the newest key: %+v, want 2 wheel events and 1 heap event", st)
	}
	if newest != old+2 {
		t.Errorf("Reserve returned %d after %d and one Schedule, want %d", newest, old, old+2)
	}
	e.Schedule(6, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleReserved in the past did not panic")
			}
		}()
		e.ScheduleReserved(5, e.Reserve(), func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"reserved@5", "later key@5", "newest@7"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestStepPoolCountsAsNew: a StepPool carried into a new run counts its
// takes as a new, empty pool would, although its steps come from the run
// before: a miss exactly when the steps in use reach a new high. The steps
// the run before still held are taken back, cleared.
func TestStepPoolCountsAsNew(t *testing.T) {
	type step struct{ n int }
	// ops: +1 takes a step, -1 puts the oldest one in use back.
	ops := []int{+1, +1, -1, +1, +1, +1, -1, -1, +1, -1, +1, +1, -1, -1}
	run := func(p *StepPool[step]) (SchedStats, int) {
		e := NewEngine(1)
		var inUse []*step
		made := 0
		for _, op := range ops {
			if op < 0 {
				p.Put(inUse[0])
				inUse = inUse[1:]
				continue
			}
			s := p.Take(e)
			if s == nil {
				s = p.Made(new(step))
				made++
			}
			s.n = 1
			inUse = append(inUse, s)
		}
		return e.SchedStats(), made
	}
	var p StepPool[step]
	want, made := run(&p)
	if want.StepPoolMisses != 4 || want.StepPoolHits != 4 || made != 4 {
		t.Fatalf("a new pool counted %+v and made %d steps, want 4 misses, 4 hits, 4 made", want, made)
	}
	// The run stops with 2 steps in use: they are taken back, cleared.
	cleared := 0
	p = p.Recycled(func(s *step) {
		cleared += s.n
		s.n = 0
	})
	if cleared != 4 {
		t.Errorf("Recycled cleared %d steps, want the 4 made", cleared)
	}
	got, made := run(&p)
	if got != want {
		t.Errorf("a recycled pool counted %+v, a new one %+v", got, want)
	}
	if made != 0 {
		t.Errorf("a recycled pool made %d steps; it keeps the 4 of the run before, so 0", made)
	}
}
