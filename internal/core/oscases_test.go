package core

import (
	"testing"

	"wisync/internal/config"
)

// TestPreemptedThreadSeesFreshBM models Section 5.2: a thread is preempted
// (does nothing for a long stretch); remote updates keep flowing into its
// local BM replica, and on "rescheduling" it observes the final state
// immediately.
func TestPreemptedThreadSeesFreshBM(t *testing.T) {
	m := NewMachine(config.New(config.WiSync, 8))
	addr, _ := m.BM.AllocBare(1, false)
	m.SpawnTask("preempted", 0, 1, func(th *Task) {
		m.Eng.SleepThen(50000, func() { // preempted: no BM activity at all
			th.BMLoad(addr, func(v uint64) {
				if v != 7 {
					t.Errorf("rescheduled thread sees %d, want 7", v)
				}
				th.Finish()
			})
		})
	})
	m.SpawnTask("writer", 3, 1, func(th *Task) {
		i := uint64(0)
		var store func()
		store = func() {
			if i == 7 {
				th.Finish()
				return
			}
			i++
			th.BMStore(addr, i, func() {
				th.Compute(100)
				store()
			})
		}
		store()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestThreadMigrationOnDataChannel models Section 5.2: because all BM
// replicas are identical, a thread can resume on a different core and
// observe exactly the same broadcast state (Data channel only; tone
// participation is pinned).
func TestThreadMigrationOnDataChannel(t *testing.T) {
	m := NewMachine(config.New(config.WiSyncNoT, 8))
	addr, _ := m.BM.AllocBare(1, false)
	var before, after uint64
	m.SpawnTask("phase1-on-core2", 2, 1, func(th *Task) {
		th.BMFetchAdd(addr, 5, func(uint64) {
			th.BMLoad(addr, func(v uint64) {
				before = v
				th.Finish()
			})
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// "Migrate": the same logical thread continues on core 6.
	m.SpawnTask("phase2-on-core6", 6, 1, func(th *Task) {
		th.BMLoad(addr, func(v uint64) {
			after = v
			th.BMFetchAdd(addr, 1, func(uint64) { th.Finish() })
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if before != 5 || after != 5 {
		t.Errorf("before/after migration = %d/%d, want 5/5", before, after)
	}
	if m.BM.Peek(addr) != 6 {
		t.Errorf("final = %d, want 6", m.BM.Peek(addr))
	}
}

// TestOSAbortsRMWAcrossContextSwitch models the Section 4.2.1 rule: an
// exception between a RMW and its AFB check aborts the wireless transfer
// and sets AFB, and the software retry then completes correctly.
func TestOSAbortsRMWAcrossContextSwitch(t *testing.T) {
	cfg := config.New(config.WiSync, 4)
	m := NewMachine(cfg)
	m.BM.SetRMWEarlyRead(true)
	addr, _ := m.BM.AllocBare(1, false)
	m.SpawnTask("hog", 0, 1, func(th *Task) {
		// Keep the channel busy so the victim's RMW stays pending.
		th.BMStore(addr, 0, func() {
			th.BMStore(addr, 1, func() {
				th.BMStore(addr, 2, th.Finish)
			})
		})
	})
	m.SpawnTask("victim", 1, 1, func(th *Task) {
		m.Eng.SleepThen(1, func() {
			// Full software protocol: retry until atomic.
			th.BMFetchAdd(addr, 100, func(uint64) { th.Finish() })
		})
	})
	m.SpawnTask("os", 2, 1, func(th *Task) {
		m.Eng.SleepThen(4, func() {
			m.BM.AbortPendingRMW(1) // context switch hits the victim
			th.Finish()
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The last hog store may land before or after the victim's retry, but
	// the +100 must be applied exactly once on top of some hog value.
	got := m.BM.Peek(addr)
	if got != 102 && got != 100 && got != 101 {
		t.Errorf("final = %d, want hog value + 100", got)
	}
	if got < 100 {
		t.Errorf("victim's fetch&add lost: %d", got)
	}
}

// TestMultiprogramProtectionAndSharing: two PIDs share the physical BM;
// each accesses only its own entries; cross-access faults (Figure 5).
func TestMultiprogramProtectionAndSharing(t *testing.T) {
	m := NewMachine(config.New(config.WiSync, 8))
	a1, _ := m.BM.AllocBare(1, false)
	a2, _ := m.BM.AllocBare(2, false)
	faults := 0
	// Each program stores its own entry, then probes the other's: the
	// load faults at issue, before any simulated time elapses.
	program := func(own, other uint32, val uint64) func(*Task) {
		return func(th *Task) {
			th.BMStore(own, val, func() {
				if err := m.BM.LoadAsync(th.Core, th.PID, other, func(uint64) { th.Finish() }); err != nil {
					faults++
					th.Finish()
				}
			})
		}
	}
	m.SpawnTask("p1", 0, 1, program(a1, a2, 11))
	m.SpawnTask("p2", 4, 2, program(a2, a1, 22))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if faults != 2 {
		t.Errorf("faults = %d, want 2", faults)
	}
	if m.BM.Peek(a1) != 11 || m.BM.Peek(a2) != 22 {
		t.Errorf("values = %d, %d", m.BM.Peek(a1), m.BM.Peek(a2))
	}
}
