package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestTaskMirrorsProcSleepChain checks that a task advancing through
// SleepThen continuations interleaves with a second party on the exact
// schedule recorded from the blocking Sleep loop it replaced.
func TestTaskMirrorsProcSleepChain(t *testing.T) {
	e := NewEngine(1)
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%s@%d", who, e.Now())) }
	// A foreign ticker creates interleavings at odd times.
	for i := Time(1); i <= 9; i += 2 {
		e.ScheduleAt(i, PrioNormal, func() { note("tick") })
	}
	e.GoTask("w", func(task *Task) {
		n := 0
		var step func()
		step = func() {
			note("w")
			n++
			if n == 5 {
				task.Finish()
				return
			}
			task.Sleep(2, step)
		}
		task.Sleep(2, step)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "tick@1,w@2,tick@3,w@4,tick@5,w@6,tick@7,w@8,tick@9,w@10"
	if got := strings.Join(log, ","); got != want {
		t.Errorf("schedule %s, want %s", got, want)
	}
}

// TestSleepThenFastPathTrampoline checks that a long chain of uncontended
// continuations runs entirely through the trampoline slot: same results,
// no event-queue growth beyond the initial spawn, and constant stack depth
// (the chain would overflow the stack if each continuation nested).
func TestSleepThenFastPathTrampoline(t *testing.T) {
	e := NewEngine(1)
	const steps = 200000
	n := 0
	e.GoTask("chain", func(task *Task) {
		var step func()
		step = func() {
			n++
			if n == steps {
				task.Finish()
				return
			}
			if e.Pending() != 0 {
				t.Errorf("step %d: %d queued events on the uncontended fast path", n, e.Pending())
			}
			task.Sleep(1, step)
		}
		step()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != steps {
		t.Fatalf("ran %d steps, want %d", n, steps)
	}
	if e.Now() != Time(steps-1) {
		t.Errorf("clock at %d, want %d", e.Now(), steps-1)
	}
}

// TestSleepThenRespectsHorizon verifies that the fast path cannot advance
// the clock past a RunUntil limit.
func TestSleepThenRespectsHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.GoTask("w", func(task *Task) {
		var step func()
		step = func() {
			fired++
			task.Sleep(10, step)
		}
		step()
	})
	e.RunUntil(35)
	// Steps at 0, 10, 20, 30; the wake at 40 is past the horizon.
	if fired != 4 {
		t.Errorf("fired %d times by cycle 35, want 4", fired)
	}
	if e.Now() != 35 {
		t.Errorf("clock at %d, want 35", e.Now())
	}
	e.Shutdown()
}

// TestTaskDeadlockReported ensures an unfinished task surfaces in the
// deadlock diagnostics.
func TestTaskDeadlockReported(t *testing.T) {
	e := NewEngine(1)
	e.GoTask("stuck", func(*Task) {}) // never calls Finish
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || !strings.Contains(de.Parked[0], "stuck") {
		t.Errorf("diagnostics %v, want the stuck task", de.Parked)
	}
}

// TestWaitQueueMixedWaiters checks FIFO wake order across waiters enqueued
// from different contexts — a task's first step, a plain engine callback
// with no task behind it, and a task continuation after a sleep — and that
// WakeAll's delay applies to each of them.
func TestWaitQueueMixedWaiters(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []string
	note := func(who string) { order = append(order, fmt.Sprintf("%s@%d", who, e.Now())) }
	e.GoTask("t1", func(task *Task) {
		q.WaitFn(e, func() {
			note("t1")
			task.Finish()
		})
	})
	e.Schedule(1, func() {
		q.WaitFn(e, func() { note("cb") })
	})
	e.GoTask("t2", func(task *Task) {
		task.Sleep(2, func() {
			q.WaitFn(e, func() {
				note("t2")
				task.Finish()
			})
		})
	})
	e.Schedule(5, func() { q.WakeAll(3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "t1@8,cb@8,t2@8" {
		t.Errorf("wake order %s, want t1@8,cb@8,t2@8", got)
	}
	if q.Len() != 0 {
		t.Errorf("queue still holds %d waiters", q.Len())
	}
}

// TestGoTaskAfterShutdownPanics checks that a stopped engine starts no task.
func TestGoTaskAfterShutdownPanics(t *testing.T) {
	e := NewEngine(1)
	e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("GoTask after Shutdown did not panic")
		}
	}()
	e.GoTask("late", func(*Task) {})
}

// TestRunHoldsFastPath runs two members inside one event. Member 0's
// SleepThen finds the queue otherwise empty, but member 1 still stands
// where a queued event would, so the continuation must not advance the
// clock past it: member 1 runs at the event's cycle, and the continuation
// one cycle later, after member 1.
func TestRunHoldsFastPath(t *testing.T) {
	e := NewEngine(1)
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, e.Now())) }
	members := []func(){
		func() { e.SleepThen(1, func() { note("f") }) },
		func() { note("member1") },
	}
	e.ScheduleAt(5, PrioNormal, func() {
		for i, m := range members {
			e.RunAhead(len(members) - 1 - i)
			m()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "member1@5 f@6"; got != want {
		t.Errorf("log = %q, want %q", got, want)
	}
}

// TestTaskRefillAllocFree: the engine keeps its live tasks in an array
// that Init empties, so 64 tasks started again after each of 200 Inits,
// finishing in another order than they started, allocate nothing in any
// run. A map refilled after clear could regrow its table by chance, since
// Go draws a new hash seed at each clear.
func TestTaskRefillAllocFree(t *testing.T) {
	const tasks, runs = 64, 200
	e := NewEngine(1)
	ts := make([]Task, tasks)
	starts := make([]func(), tasks)
	for i := range ts {
		finish := ts[i].Finish
		starts[i] = func() { e.SleepThen(Time(i*7%13), finish) }
	}
	run := func() {
		e.Init(1)
		for i := range ts {
			e.StartTask(&ts[i], "refill", starts[i])
		}
		if e.Live() != tasks {
			t.Fatalf("Live = %d after starting %d tasks", e.Live(), tasks)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if d := mallocs(func() {
		for range runs {
			run()
		}
	}); d != 0 {
		t.Errorf("%d tasks refilled %d times after Init allocated %d objects, want 0", tasks, runs, d)
	}
}
