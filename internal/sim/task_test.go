package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestTaskMirrorsProcSleepChain proves the core equivalence contract: a
// task advancing through SleepThen continuations observes the exact
// (time, order) schedule of a proc advancing through Sleeps, interleaved
// with a second party.
func TestTaskMirrorsProcSleepChain(t *testing.T) {
	run := func(useTask bool) []string {
		e := NewEngine(1)
		var log []string
		note := func(who string) { log = append(log, who) }
		// A foreign ticker creates interleavings at odd times.
		for i := Time(1); i <= 9; i += 2 {
			tick := i
			e.ScheduleAt(tick, PrioNormal, func() { note("tick") })
		}
		if useTask {
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
		} else {
			e.Go("w", func(p *Proc) {
				for n := 0; n < 5; n++ {
					p.Sleep(2)
					note("w")
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	proc := run(false)
	task := run(true)
	if strings.Join(proc, ",") != strings.Join(task, ",") {
		t.Errorf("schedules diverge:\nproc: %v\ntask: %v", proc, task)
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
	if err := e.RunUntil(35); err != nil {
		t.Fatal(err)
	}
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
// deadlock diagnostics like a parked process.
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

// TestWaitQueueMixedWaiters drives a queue holding both a parked process
// and a continuation, asserting FIFO wake order across the two styles.
func TestWaitQueueMixedWaiters(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []string
	e.Go("p1", func(p *Proc) {
		q.Wait(p, "mixed")
		order = append(order, "p1")
	})
	e.GoTask("t1", func(task *Task) {
		q.WaitFn(e, func() {
			order = append(order, "t1")
			task.Finish()
		})
	})
	e.Go("p2", func(p *Proc) {
		q.Wait(p, "mixed")
		order = append(order, "p2")
	})
	e.Schedule(5, func() { q.WakeAll(0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "p1,t1,p2" {
		t.Errorf("wake order %s, want p1,t1,p2", got)
	}
	if q.Len() != 0 {
		t.Errorf("queue still holds %d waiters", q.Len())
	}
}

// TestWaitQueueWakeOneMixed checks WakeOne across waiter styles.
func TestWaitQueueWakeOneMixed(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []string
	e.GoTask("t1", func(task *Task) {
		q.WaitFn(e, func() {
			order = append(order, "t1")
			task.Finish()
		})
	})
	e.Go("p1", func(p *Proc) {
		q.Wait(p, "mixed")
		order = append(order, "p1")
	})
	e.Schedule(3, func() { q.WakeOne(0) })
	e.Schedule(7, func() { q.WakeOne(0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "t1,p1" {
		t.Errorf("wake order %s, want t1,p1", got)
	}
}

// TestGoTaskAfterShutdownPanics mirrors the Go-after-Shutdown guard.
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
