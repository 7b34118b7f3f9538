package core

import (
	"errors"
	"strings"
	"testing"

	"wisync/internal/config"
	"wisync/internal/sim"
)

// TestGuardedRun drives every branch of the guarded run loop, in Run mode
// (cut 0) and RunUntil mode, and checks that a run no guard stops ends as
// the unguarded run of the same workload does: the same error text, or
// the same final cycle.
func TestGuardedRun(t *testing.T) {
	const window = 10000
	// The workloads run one thread on core 0. spin reads one line, then
	// schedules an event every 100 cycles forever: events flow, but after
	// the read no progress counter moves. park leaves its thread live with
	// nothing queued. finish computes, reads one line and retires.
	spin := func(m *Machine) {
		addr := m.AllocLine()
		m.SpawnTask("spin", 0, 1, func(th *Task) {
			var loop func()
			loop = func() { m.Eng.Schedule(100, loop) }
			th.Read(addr, func(uint64) { loop() })
		})
	}
	park := func(m *Machine) { m.SpawnTask("park", 0, 1, func(*Task) {}) }
	finish := func(m *Machine) {
		addr := m.AllocLine()
		m.SpawnTask("finish", 0, 1, func(th *Task) {
			th.Compute(100)
			th.Read(addr, func(uint64) { th.Finish() })
		})
	}
	cases := []struct {
		name             string
		budget, watchdog sim.Time
		abortAfter       int // abort on this poll; 0 never aborts
		cut              sim.Time
		work             func(*Machine)
		want             any // nil, ErrAborted, or a pointer to the error type
	}{
		{"Run/deadlock", 0, 1 << 20, 0, 0, park, new(*sim.DeadlockError)},
		{"Run/watchdog", 0, window, 0, 0, spin, new(*LivelockError)},
		{"Run/budget", 20000, 0, 0, 0, spin, new(*BudgetError)},
		{"Run/abort", 0, 0, 3, 0, spin, ErrAborted},
		{"Run/finished", 1 << 20, 0, 0, 0, finish, nil},
		{"RunUntil/watchdog", 0, window, 0, 1 << 20, spin, new(*LivelockError)},
		{"RunUntil/budget below cut", 20000, 0, 0, 1 << 20, spin, new(*BudgetError)},
		{"RunUntil/abort", 0, 0, 3, 1 << 20, spin, ErrAborted},
		{"RunUntil/parked at cut", 1 << 30, 0, 0, 50000, park, nil},
		{"RunUntil/live at cut", 0, 1 << 20, 0, 50000, spin, nil},
		{"RunUntil/finished before cut", 0, 1 << 20, 0, 50000, finish, nil},
	}
	run := func(cfg config.Config, cut sim.Time, work func(*Machine)) (*Machine, error) {
		m := NewMachine(cfg)
		work(m)
		if cut == 0 {
			return m, m.Run()
		}
		return m, m.RunUntil(cut)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.New(config.Baseline, 4).WithBudget(tc.budget).WithWatchdog(tc.watchdog)
			if tc.abortAfter > 0 {
				polls := 0
				cfg.Abort = &config.AbortCheck{F: func() bool { polls++; return polls == tc.abortAfter }}
			}
			m, err := run(cfg, tc.cut, tc.work)
			if !m.guarded() {
				t.Fatal("configuration does not select the guarded loop")
			}
			// unguarded runs the workload without guards; only the
			// workloads that end on their own may call it.
			unguarded := func() (*Machine, error) { return run(config.New(config.Baseline, 4), tc.cut, tc.work) }
			switch want := tc.want.(type) {
			case nil:
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
				free, _ := unguarded()
				if m.Now() != free.Now() || (tc.cut > 0 && m.Now() != tc.cut) {
					t.Fatalf("ended at cycle %d, unguarded at %d, cut %d", m.Now(), free.Now(), tc.cut)
				}
				if m.Eng.Live() != 0 {
					t.Fatalf("%d thread(s) live after the run", m.Eng.Live())
				}
			case error:
				if !errors.Is(err, want) {
					t.Fatalf("err = %v, want %v", err, want)
				}
			case **sim.DeadlockError:
				_, freeErr := unguarded()
				if !errors.As(err, want) || freeErr == nil || err.Error() != freeErr.Error() {
					t.Fatalf("err = %v, want the unguarded %v", err, freeErr)
				}
			case **LivelockError:
				if !errors.As(err, want) {
					t.Fatalf("err = %v, want a LivelockError", err)
				}
				if e := *want; e.Window != window || e.Now < window || len(e.Parked) != 1 ||
					!strings.Contains(e.Error(), "(livelock)") {
					t.Fatalf("malformed LivelockError: %+v", e)
				}
			case **BudgetError:
				if !errors.As(err, want) {
					t.Fatalf("err = %v, want a BudgetError", err)
				}
				if e := *want; e.Budget != tc.budget || e.Now != tc.budget || len(e.Parked) != 1 {
					t.Fatalf("malformed BudgetError: %+v", e)
				}
			}
			// A guard trip shuts the engine down; a deadlock leaves it as
			// the unguarded Run does.
			if tc.want != nil && m.Eng.Live() != 0 && !errors.As(err, new(*sim.DeadlockError)) {
				t.Fatalf("%d thread(s) live after a guard trip", m.Eng.Live())
			}
		})
	}
}
