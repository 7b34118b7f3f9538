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
	if err := e.RunUntil(55); err != nil {
		t.Fatal(err)
	}
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
