package core

import (
	"errors"
	"fmt"
	"testing"

	"wisync/internal/bmem"
	"wisync/internal/config"
	"wisync/internal/sim"
)

func newM(t *testing.T, kind config.Kind, cores int) *Machine {
	t.Helper()
	return NewMachine(config.New(kind, cores))
}

func TestMachineAssembly(t *testing.T) {
	w := newM(t, config.WiSync, 16)
	if w.Net == nil || w.BM == nil || w.Tone == nil {
		t.Error("WiSync machine missing wireless hardware")
	}
	wnt := newM(t, config.WiSyncNoT, 16)
	if wnt.Net == nil || wnt.BM == nil {
		t.Error("WiSyncNoT missing Data channel or BM")
	}
	if wnt.Tone != nil {
		t.Error("WiSyncNoT has a Tone controller")
	}
	b := newM(t, config.Baseline, 16)
	if b.Net != nil || b.BM != nil || b.Tone != nil {
		t.Error("Baseline has wireless hardware")
	}
	if b.Mem == nil || b.Mesh == nil {
		t.Error("Baseline missing wired substrate")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	cfg := config.New(config.WiSync, 64)
	cfg.Cores = 0
	NewMachine(cfg)
}

func TestAllocLineDistinctLines(t *testing.T) {
	m := newM(t, config.Baseline, 16)
	a, b := m.AllocLine(), m.AllocLine()
	if a>>6 == b>>6 {
		t.Errorf("AllocLine shares a line: %#x %#x", a, b)
	}
	base := m.AllocArray(100)
	if base>>6 == b>>6 {
		t.Error("array overlaps previous line")
	}
}

func TestLazyComputeCharging(t *testing.T) {
	m := newM(t, config.Baseline, 4)
	var at1, at2 sim.Time
	m.SpawnTask("t", 0, 1, func(th *Task) {
		th.Compute(100)
		at1 = m.Now() // engine time: compute not yet flushed
		if th.Now() != at1+100 {
			t.Errorf("Task.Now() = %d, want engine+pending", th.Now())
		}
		th.Read(m.AllocLine(), func(uint64) { // interaction flushes
			at2 = m.Now()
			th.Finish()
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 0 {
		t.Errorf("compute flushed too early: engine at %d", at1)
	}
	if at2 < 100 {
		t.Errorf("interaction at %d did not include pending compute", at2)
	}
}

func TestInstrTwoIssue(t *testing.T) {
	m := newM(t, config.Baseline, 4)
	m.SpawnTask("t", 0, 1, func(th *Task) {
		th.Instr(100) // 50 cycles on the 2-issue core
		th.Sync(func() {
			if m.Now() != 50 {
				t.Errorf("100 instructions took %d cycles, want 50", m.Now())
			}
			th.Instr(3) // ceil(3/2) = 2
			th.Sync(func() {
				if m.Now() != 52 {
					t.Errorf("after 3 more instructions: %d, want 52", m.Now())
				}
				th.Finish()
			})
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBMInstructionsOnWiredMachinePanic(t *testing.T) {
	m := newM(t, config.Baseline, 4)
	m.SpawnTask("t", 0, 1, func(th *Task) {
		defer func() {
			if recover() == nil {
				t.Error("BMLoad on Baseline did not panic")
			}
		}()
		th.BMLoad(0, func(uint64) {})
	})
	defer func() { recover() }()
	_ = m.Run()
}

func TestBMRMWHelpers(t *testing.T) {
	m := newM(t, config.WiSync, 8)
	addr, err := m.BM.AllocBare(1, false)
	if err != nil {
		t.Fatal(err)
	}
	m.SpawnAllTasks(func(th *Task) {
		th.BMFetchInc(addr, func(uint64) {
			th.BMFetchAdd(addr, 10, func(uint64) { th.Finish() })
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.BM.Peek(addr); got != 8*11 {
		t.Errorf("counter = %d, want 88", got)
	}
}

func TestBMTestAndSet(t *testing.T) {
	m := newM(t, config.WiSync, 8)
	addr, _ := m.BM.AllocBare(1, false)
	winners := 0
	m.SpawnAllTasks(func(th *Task) {
		th.BMTestAndSet(addr, func(old uint64) {
			if old == 0 {
				winners++
			}
			th.Finish()
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if winners != 1 {
		t.Errorf("winners = %d, want exactly 1", winners)
	}
}

func TestBMCASSemantics(t *testing.T) {
	m := newM(t, config.WiSync, 4)
	addr, _ := m.BM.AllocBare(1, false)
	m.BM.Poke(addr, 5)
	m.SpawnTask("t", 0, 1, func(th *Task) {
		th.BMCAS(addr, 4, 9, func(ok bool) {
			if ok {
				t.Error("CAS with wrong expected value succeeded")
			}
			th.BMCAS(addr, 5, 9, func(ok bool) {
				if !ok {
					t.Error("CAS with right expected value failed")
				}
				th.BMLoad(addr, func(v uint64) {
					if v != 9 {
						t.Errorf("value = %d, want 9", v)
					}
					th.Finish()
				})
			})
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProtectionFaultSurfacesAsError(t *testing.T) {
	m := newM(t, config.WiSync, 4)
	addr, _ := m.BM.AllocBare(7, false)     // owned by PID 7
	m.SpawnTask("t", 0, 1, func(th *Task) { // PID 1
		err := m.BM.LoadAsync(th.Core, th.PID, addr, func(uint64) {})
		var pe *bmem.ProtectionError
		if !errors.As(err, &pe) {
			t.Errorf("err = %v, want ProtectionError", err)
		}
		th.Finish()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilStopsOpenEndedThreads(t *testing.T) {
	m := newM(t, config.WiSync, 8)
	addr, _ := m.BM.AllocBare(1, false)
	m.SpawnAllTasks(func(th *Task) {
		var loop func(uint64)
		loop = func(uint64) {
			th.Compute(50)
			th.BMFetchInc(addr, loop)
		}
		loop(0)
	})
	if err := m.RunUntil(5000); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 5000 {
		t.Errorf("Now = %d, want 5000", m.Now())
	}
	if m.BM.Peek(addr) == 0 {
		t.Error("no increments happened")
	}
	if m.Eng.Live() != 0 {
		t.Errorf("%d live tasks after RunUntil", m.Eng.Live())
	}
}

func TestSpawnAllThreadPerCore(t *testing.T) {
	m := newM(t, config.Baseline, 16)
	seen := map[int]bool{}
	m.SpawnAllTasks(func(th *Task) {
		if seen[th.Core] {
			t.Errorf("core %d spawned twice", th.Core)
		}
		seen[th.Core] = true
		th.Finish()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 16 {
		t.Errorf("%d tasks, want 16", len(seen))
	}
}

func TestSpawnOutOfRangePanics(t *testing.T) {
	m := newM(t, config.Baseline, 4)
	defer func() {
		if recover() == nil {
			t.Error("spawn on core 4 of 4 did not panic")
		}
	}()
	m.SpawnTask("bad", 4, 1, func(*Task) {})
}

func TestWCBAFBVisibleToSoftware(t *testing.T) {
	cfg := config.New(config.WiSync, 4)
	cfg.Wireless.MsgCycles = 5
	m := NewMachine(cfg)
	m.BM.SetRMWEarlyRead(true)
	addr, _ := m.BM.AllocBare(1, false)
	m.SpawnTask("a", 0, 1, func(th *Task) {
		th.BMStore(addr, 1, func() {
			if !th.WCB() {
				t.Error("WCB clear after completed store")
			}
			th.Finish()
		})
	})
	m.SpawnTask("b", 1, 1, func(th *Task) {
		m.Eng.SleepThen(1, func() {
			// This RMW conflicts with a's store and must retry via AFB.
			th.BMFetchAdd(addr, 1, func(uint64) {
				if th.AFB() {
					t.Error("AFB still set after the retry protocol completed")
				}
				th.Finish()
			})
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.BM.Peek(addr); got != 2 {
		t.Errorf("value = %d, want 2", got)
	}
}

func TestToneISAOnWiSync(t *testing.T) {
	m := newM(t, config.WiSync, 4)
	bar, err := m.Tone.AllocateBare(1, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	released := 0
	m.SpawnAllTasks(func(th *Task) {
		th.Compute(10 * th.Core)
		th.ToneStore(bar, func() {
			th.ToneWait(bar, 1, func() {
				released++
				th.Finish()
			})
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if released != 4 {
		t.Errorf("released = %d, want 4", released)
	}
}

func TestDataChannelUtilizationAccounting(t *testing.T) {
	m := newM(t, config.WiSync, 4)
	addr, _ := m.BM.AllocBare(1, false)
	m.SpawnTask("t", 0, 1, func(th *Task) {
		th.BMStore(addr, 1, func() { // 5 busy cycles
			th.Compute(95)
			th.Sync(th.Finish)
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if u := m.DataChannelUtilization(); u < 0.04 || u > 0.06 {
		t.Errorf("utilization = %v, want 0.05", u)
	}
	if newM(t, config.Baseline, 4).DataChannelUtilization() != 0 {
		t.Error("Baseline reports nonzero channel utilization")
	}
}

func TestManyMachinesIndependent(t *testing.T) {
	// Machines must not share state; run several interleaved.
	for i := 0; i < 3; i++ {
		m := newM(t, config.WiSync, 8)
		addr, _ := m.BM.AllocBare(1, false)
		m.SpawnAllTasks(func(th *Task) { th.BMFetchInc(addr, func(uint64) { th.Finish() }) })
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.BM.Peek(addr) != 8 {
			t.Errorf("machine %d: counter = %d", i, m.BM.Peek(addr))
		}
	}
}

func TestBulkISA(t *testing.T) {
	m := newM(t, config.WiSync, 4)
	base, err := m.BM.AllocBareContiguous(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.SpawnTask("w", 0, 1, func(th *Task) {
		th.BMBulkStore(base, [4]uint64{7, 8, 9, 10}, th.Finish)
	})
	m.SpawnTask("r", 3, 1, func(th *Task) {
		m.Eng.SleepThen(100, func() {
			th.BMBulkLoad(base, func(got [4]uint64) {
				if got != [4]uint64{7, 8, 9, 10} {
					t.Errorf("BulkLoad = %v", got)
				}
				th.Finish()
			})
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestThreadsOnDistinctPIDsIsolated(t *testing.T) {
	m := newM(t, config.WiSync, 8)
	addrs := make([]uint32, 2)
	for pid := uint16(1); pid <= 2; pid++ {
		a, _ := m.BM.AllocBare(pid, false)
		addrs[pid-1] = a
	}
	for c := 0; c < 8; c++ {
		pid := uint16(c%2 + 1)
		m.SpawnTask(fmt.Sprintf("t%d", c), c, pid, func(th *Task) {
			th.BMFetchInc(addrs[pid-1], func(uint64) { th.Finish() })
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.BM.Peek(addrs[0]) != 4 || m.BM.Peek(addrs[1]) != 4 {
		t.Errorf("counters = %d, %d; want 4, 4", m.BM.Peek(addrs[0]), m.BM.Peek(addrs[1]))
	}
}
