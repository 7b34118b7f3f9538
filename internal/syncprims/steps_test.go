package syncprims

import (
	"fmt"
	"strings"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
)

// The tests below cover the factory's recycled steps (task.go): one step
// per core for each primitive kind, shared by every lock or barrier of
// that kind.

// lockKinds are the configurations with distinct lock implementations:
// the CAS spin lock (Baseline), MCS (Baseline+) and the BM test&set lock
// (WiSync).
var lockKinds = []config.Kind{config.Baseline, config.BaselinePlus, config.WiSync}

// TestNestedLocksShareOneStep holds two locks at once on every core:
// acquire A, acquire B, release B, release A. Both acquires run on the
// core's one lock step, so each acquire must drive its own lock.
func TestNestedLocksShareOneStep(t *testing.T) {
	const cores, iters = 8, 6
	for _, k := range lockKinds {
		t.Run(k.String(), func(t *testing.T) {
			m := newMachine(t, k, cores)
			f := NewFactory(m)
			a, b := f.NewTaskLock(), f.NewTaskLock()
			var inA, inB, maxIn, total int
			m.SpawnAllTasks(func(th *core.Task) {
				repeat(iters, func(_ int, next func()) {
					th.Compute(m.Eng.Rand().Intn(40))
					a.AcquireTask(th, func() {
						inA++
						th.Instr(4)
						b.AcquireTask(th, func() {
							inB++
							maxIn = max(maxIn, inA, inB)
							total++
							th.Compute(10)
							th.Sync(func() {
								inB--
								b.ReleaseTask(th, func() {
									inA--
									a.ReleaseTask(th, next)
								})
							})
						})
					})
				}, th.Finish)
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if maxIn != 1 || total != cores*iters {
				t.Errorf("max threads inside a critical section = %d, entries = %d; want 1 and %d", maxIn, total, cores*iters)
			}
		})
	}
}

// TestBarrierWaitAfterLockRelease passes each lock release's continuation
// straight to a barrier wait, alternating between two locks and two
// barriers of one factory. No core may leave a barrier episode before
// every core has arrived at it.
func TestBarrierWaitAfterLockRelease(t *testing.T) {
	const cores, episodes = 8, 8
	forAllKinds(t, cores, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		locks := []TaskLock{f.NewTaskLock(), f.NewTaskLock()}
		bars := []TaskBarrier{f.NewTaskBarrier(nil), f.NewTaskBarrier(nil)}
		arrived := make([]int, episodes)
		var inside int
		m.SpawnAllTasks(func(th *core.Task) {
			repeat(episodes, func(e int, next func()) {
				th.Instr(10 * (1 + th.Core%3))
				l := locks[e%2]
				l.AcquireTask(th, func() {
					inside++
					if inside != 1 {
						t.Errorf("episode %d: %d threads inside the critical section", e, inside)
					}
					th.Compute(5)
					th.Sync(func() {
						inside--
						l.ReleaseTask(th, func() {
							arrived[e]++
							bars[e%2].WaitTask(th, func() {
								if arrived[e] != cores {
									t.Errorf("core %d left episode %d with %d of %d cores arrived", th.Core, e, arrived[e], cores)
								}
								next()
							})
						})
					})
				})
			}, th.Finish)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepGuardPanicsOnSharedCore starts two tasks on one core that each
// acquire a different lock of one factory at cycle 0. The second acquire
// finds the core's lock step still owing the first one's continuation,
// and must panic instead of overwriting it.
func TestStepGuardPanicsOnSharedCore(t *testing.T) {
	for _, k := range lockKinds {
		t.Run(k.String(), func(t *testing.T) {
			m := newMachine(t, k, 4)
			f := NewFactory(m)
			for i, l := range []TaskLock{f.NewTaskLock(), f.NewTaskLock()} {
				m.SpawnTask(fmt.Sprintf("holder%d", i), 0, 1, func(th *core.Task) {
					l.AcquireTask(th, func() { l.ReleaseTask(th, th.Finish) })
				})
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "two tasks on one core") {
					t.Errorf("second task's acquire did not trip the step guard; recovered %q", msg)
				}
			}()
			err := m.Run()
			t.Errorf("run finished (err %v) without the step guard firing", err)
		})
	}
}
