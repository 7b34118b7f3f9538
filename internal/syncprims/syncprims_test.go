package syncprims

import (
	"fmt"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
)

func newMachine(t *testing.T, kind config.Kind, cores int) *core.Machine {
	t.Helper()
	return core.NewMachine(config.New(kind, cores))
}

func forAllKinds(t *testing.T, cores int, fn func(t *testing.T, m *core.Machine)) {
	for _, k := range config.Kinds {
		t.Run(k.String(), func(t *testing.T) {
			fn(t, newMachine(t, k, cores))
		})
	}
}

// repeat runs body for i = 0..n-1 in sequence, each call continuing with
// next, then runs done.
func repeat(n int, body func(i int, next func()), done func()) {
	i := 0
	var step func()
	step = func() {
		if i == n {
			done()
			return
		}
		i++
		body(i-1, step)
	}
	step()
}

// barrierLoop runs episodes back-to-back barrier episodes on every core.
func barrierLoop(m *core.Machine, b TaskBarrier, episodes int) {
	m.SpawnAllTasks(func(th *core.Task) {
		repeat(episodes, func(_ int, next func()) { b.WaitTask(th, next) }, th.Finish)
	})
}

func TestBarrierSynchronizesAllKinds(t *testing.T) {
	const cores, episodes = 16, 4
	forAllKinds(t, cores, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		b := f.NewTaskBarrier(nil)
		phase := make([]int, cores)
		m.SpawnAllTasks(func(th *core.Task) {
			repeat(episodes, func(e int, next func()) {
				th.Compute(m.Eng.Rand().Intn(100))
				phase[th.Core] = e
				b.WaitTask(th, func() {
					for j := 0; j < cores; j++ {
						if phase[j] < e {
							t.Errorf("thread %d passed episode %d while %d is at %d",
								th.Core, e, j, phase[j])
						}
					}
					next()
				})
			}, th.Finish)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrierNoThreadReleasedEarly(t *testing.T) {
	// One thread arrives very late; nobody may be released before it.
	const cores = 8
	forAllKinds(t, cores, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		b := f.NewTaskBarrier(nil)
		const lateArrival = 5000
		var releases []sim.Time
		m.SpawnAllTasks(func(th *core.Task) {
			if th.Core == cores-1 {
				th.Compute(lateArrival)
			}
			b.WaitTask(th, func() {
				releases = append(releases, m.Now())
				th.Finish()
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if len(releases) != cores {
			t.Fatalf("released %d, want %d", len(releases), cores)
		}
		for _, r := range releases {
			if r < lateArrival {
				t.Errorf("release at %d before late arrival at %d", r, lateArrival)
			}
		}
	})
}

func TestLockMutualExclusionAllKinds(t *testing.T) {
	const cores, iters = 16, 8
	forAllKinds(t, cores, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		l := f.NewTaskLock()
		var inside, maxInside, total int
		m.SpawnAllTasks(func(th *core.Task) {
			repeat(iters, func(_ int, next func()) {
				th.Compute(m.Eng.Rand().Intn(60))
				l.AcquireTask(th, func() {
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					total++
					th.Compute(20)
					th.Sync(func() { // make the hold time architectural
						inside--
						l.ReleaseTask(th, next)
					})
				})
			}, th.Finish)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if maxInside != 1 {
			t.Errorf("max threads inside critical section = %d", maxInside)
		}
		if total != cores*iters {
			t.Errorf("total entries = %d, want %d", total, cores*iters)
		}
	})
}

func TestLockContendedHandoffProgress(t *testing.T) {
	// All threads pile on the lock at once; everyone must get it.
	const cores = 32
	forAllKinds(t, cores, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		l := f.NewTaskLock()
		var got int
		m.SpawnAllTasks(func(th *core.Task) {
			l.AcquireTask(th, func() {
				got++
				l.ReleaseTask(th, th.Finish)
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got != cores {
			t.Errorf("acquisitions = %d, want %d", got, cores)
		}
	})
}

func TestVarCASAndFetchAdd(t *testing.T) {
	const cores = 8
	forAllKinds(t, cores, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		v := f.NewTaskVar(0)
		m.SpawnAllTasks(func(th *core.Task) {
			repeat(10, func(_ int, next func()) {
				v.FetchAddTask(th, 1, func(uint64) { next() })
			}, func() {
				// CAS loop adds 5 more per thread.
				added := 0
				var attempt func()
				attempt = func() {
					if added == 5 {
						th.Finish()
						return
					}
					v.LoadTask(th, func(old uint64) {
						v.CASTask(th, old, old+1, func(ok bool) {
							if ok {
								added++
							}
							attempt()
						})
					})
				}
				attempt()
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		// Check final value through a fresh reader task.
		var final uint64
		m.SpawnTask("reader", 0, 1, func(th *core.Task) {
			v.LoadTask(th, func(x uint64) {
				final = x
				th.Finish()
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if final != cores*15 {
			t.Errorf("final = %d, want %d", final, cores*15)
		}
	})
}

func TestVarBackendSelection(t *testing.T) {
	mW := newMachine(t, config.WiSync, 4)
	if v := NewFactory(mW).NewTaskVar(0); !v.InBM() {
		t.Error("WiSync variable not in BM")
	}
	mB := newMachine(t, config.Baseline, 4)
	if v := NewFactory(mB).NewTaskVar(0); v.InBM() {
		t.Error("Baseline variable in BM")
	}
}

func TestBMSpillToCachedMemory(t *testing.T) {
	cfg := config.New(config.WiSync, 4)
	cfg.BMEntries = 4
	m := core.NewMachine(cfg)
	f := NewFactory(m)
	vars := make([]TaskVar, 8)
	for i := range vars {
		vars[i] = f.NewTaskVar(uint64(i))
	}
	if f.Spills == 0 {
		t.Fatal("no spills with an overfull BM")
	}
	inBM := 0
	for _, v := range vars {
		if v.InBM() {
			inBM++
		}
	}
	if inBM != 4 {
		t.Errorf("vars in BM = %d, want 4", inBM)
	}
	// Spilled variables still work.
	m.SpawnAllTasks(func(th *core.Task) {
		repeat(len(vars), func(i int, next func()) {
			vars[i].FetchAddTask(th, 1, func(uint64) { next() })
		}, th.Finish)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	m.SpawnTask("reader", 0, 1, func(th *core.Task) {
		repeat(len(vars), func(i int, next func()) {
			vars[i].LoadTask(th, func(v uint64) {
				sum += v
				next()
			})
		}, th.Finish)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// sum(init) = 0+1+..+7 = 28, plus 4 increments each = 32.
	if sum != 28+32 {
		t.Errorf("sum = %d, want 60", sum)
	}
}

func TestBarrierCostOrderingAcrossKinds(t *testing.T) {
	// The paper's central result in miniature: with simultaneous
	// arrivals, barrier cost must order WiSync < WiSyncNoT < Baseline+ <
	// Baseline at 64 cores.
	const cores, episodes = 64, 5
	cost := map[config.Kind]sim.Time{}
	for _, k := range config.Kinds {
		m := newMachine(t, k, cores)
		barrierLoop(m, NewFactory(m).NewTaskBarrier(nil), episodes)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		cost[k] = m.Now()
	}
	t.Logf("barrier cost (cycles for %d episodes): %v", episodes, cost)
	if !(cost[config.WiSync] < cost[config.WiSyncNoT]) {
		t.Errorf("WiSync (%d) not faster than WiSyncNoT (%d)", cost[config.WiSync], cost[config.WiSyncNoT])
	}
	if !(cost[config.WiSyncNoT] < cost[config.BaselinePlus]) {
		t.Errorf("WiSyncNoT (%d) not faster than Baseline+ (%d)", cost[config.WiSyncNoT], cost[config.BaselinePlus])
	}
	if !(cost[config.BaselinePlus] < cost[config.Baseline]) {
		t.Errorf("Baseline+ (%d) not faster than Baseline (%d)", cost[config.BaselinePlus], cost[config.Baseline])
	}
}

func TestEurekaFiresForAll(t *testing.T) {
	const cores = 8
	forAllKinds(t, cores, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		e := f.NewEureka()
		found := -1
		var woken int
		m.SpawnAllTasks(func(th *core.Task) {
			if th.Core == 3 {
				th.Compute(500)
				found = th.Core
				e.TriggerTask(th, th.Finish)
				return
			}
			e.WaitTriggeredTask(th, func() {
				if found != 3 {
					t.Errorf("thread %d woke before the trigger", th.Core)
				}
				woken++
				th.Finish()
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if woken != cores-1 {
			t.Errorf("woken = %d, want %d", woken, cores-1)
		}
	})
}

func TestEurekaReuse(t *testing.T) {
	m := newMachine(t, config.WiSync, 4)
	f := NewFactory(m)
	e := f.NewEureka()
	var fired int
	m.SpawnAllTasks(func(th *core.Task) {
		repeat(3, func(_ int, next func()) {
			after := func() {
				e.Ack(th)
				// Simple rendezvous so rounds don't overlap: everyone
				// waits out the round window.
				th.Compute(1000)
				th.Sync(next)
			}
			if th.Core == 0 {
				th.Compute(200)
				e.TriggerTask(th, after)
				return
			}
			e.WaitTriggeredTask(th, func() {
				fired++
				after()
			})
		}, th.Finish)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3*3 {
		t.Errorf("fired = %d, want 9", fired)
	}
}

func TestProducerConsumer(t *testing.T) {
	const items = 20
	forAllKinds(t, 2, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		pc := f.NewPC(1)
		var got []uint64
		m.SpawnTask("producer", 0, 1, func(th *core.Task) {
			repeat(items, func(i int, next func()) {
				pc.ProduceTask(th, []uint64{uint64((i + 1) * 11)}, next)
			}, th.Finish)
		})
		m.SpawnTask("consumer", 1, 1, func(th *core.Task) {
			buf := make([]uint64, 1)
			repeat(items, func(_ int, next func()) {
				pc.ConsumeTask(th, buf, func() {
					got = append(got, buf[0])
					next()
				})
			}, th.Finish)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != items {
			t.Fatalf("consumed %d items, want %d", len(got), items)
		}
		for i, v := range got {
			if v != uint64((i+1)*11) {
				t.Fatalf("item %d = %d, want %d (order broken)", i, v, (i+1)*11)
			}
		}
	})
}

func TestProducerConsumerBulk(t *testing.T) {
	// 4-word transfers use a single Bulk message on WiSync.
	m := newMachine(t, config.WiSync, 2)
	f := NewFactory(m)
	pc := f.NewPC(4)
	var got [][]uint64
	m.SpawnTask("producer", 0, 1, func(th *core.Task) {
		repeat(5, func(i int, next func()) {
			pc.ProduceTask(th, []uint64{uint64(i), uint64(i + 1), uint64(i + 2), uint64(i + 3)}, next)
		}, th.Finish)
	})
	m.SpawnTask("consumer", 1, 1, func(th *core.Task) {
		repeat(5, func(_ int, next func()) {
			buf := make([]uint64, 4)
			pc.ConsumeTask(th, buf, func() {
				got = append(got, buf)
				next()
			})
		}, th.Finish)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("consumed %d batches, want 5", len(got))
	}
	for i, b := range got {
		for j := range b {
			if b[j] != uint64(i+j) {
				t.Fatalf("batch %d = %v", i, b)
			}
		}
	}
}

func TestMulticastDelivery(t *testing.T) {
	const readers = 7
	forAllKinds(t, readers+1, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		mc := f.NewMulticast(readers)
		const rounds = 4
		recv := make([][]uint64, readers+1)
		m.SpawnAllTasks(func(th *core.Task) {
			if th.Core == 0 {
				repeat(rounds, func(r int, next func()) {
					mc.ProduceTask(th, uint64((r+1)*100), next)
				}, th.Finish)
				return
			}
			repeat(rounds, func(_ int, next func()) {
				mc.ConsumeTask(th, func(v uint64) {
					recv[th.Core] = append(recv[th.Core], v)
					next()
				})
			}, th.Finish)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		for c := 1; c <= readers; c++ {
			for r := 0; r < rounds; r++ {
				if recv[c][r] != uint64((r+1)*100) {
					t.Fatalf("reader %d round %d = %d", c, r, recv[c][r])
				}
			}
		}
	})
}

func TestReducerTotals(t *testing.T) {
	const cores = 16
	forAllKinds(t, cores, func(t *testing.T, m *core.Machine) {
		f := NewFactory(m)
		r := f.NewReducer(0)
		m.SpawnAllTasks(func(th *core.Task) {
			repeat(10, func(_ int, next func()) {
				r.AddTask(th, uint64(th.Core), func(uint64) { next() })
			}, th.Finish)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		var got uint64
		m.SpawnTask("reader", 0, 1, func(th *core.Task) {
			r.ValueTask(th, func(v uint64) {
				got = v
				th.Finish()
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		want := uint64(10 * cores * (cores - 1) / 2)
		if got != want {
			t.Errorf("reduction = %d, want %d", got, want)
		}
	})
}

func TestTournamentBarrierNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 7, 12, 24} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			m := newMachine(t, config.BaselinePlus, n)
			f := NewFactory(m)
			b := f.NewTaskBarrier(nil)
			var through int
			m.SpawnAllTasks(func(th *core.Task) {
				repeat(3, func(_ int, next func()) {
					th.Compute(m.Eng.Rand().Intn(50))
					b.WaitTask(th, next)
				}, func() {
					through++
					th.Finish()
				})
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if through != n {
				t.Errorf("through = %d, want %d", through, n)
			}
		})
	}
}

func TestToneBarrierFallsBackWhenTablesFull(t *testing.T) {
	cfg := config.New(config.WiSync, 4)
	cfg.Tone.TableSize = 1
	cfg.Tone.MaxPerPID = 1
	m := core.NewMachine(cfg)
	f := NewFactory(m)
	b1 := f.NewTaskBarrier(nil) // takes the single tone slot
	b2 := f.NewTaskBarrier(nil) // must fall back to the Data channel
	if _, ok := b1.(*toneBarrier); !ok {
		t.Fatalf("first barrier is %T, want toneBarrier", b1)
	}
	if _, ok := b2.(*dataBarrier); !ok {
		t.Fatalf("second barrier is %T, want dataBarrier", b2)
	}
	m.SpawnAllTasks(func(th *core.Task) {
		b1.WaitTask(th, func() {
			b2.WaitTask(th, func() { b1.WaitTask(th, th.Finish) })
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRunsAcrossMachines(t *testing.T) {
	run := func() sim.Time {
		m := newMachine(t, config.WiSync, 16)
		f := NewFactory(m)
		b := f.NewTaskBarrier(nil)
		l := f.NewTaskLock()
		v := f.NewTaskVar(0)
		m.SpawnAllTasks(func(th *core.Task) {
			repeat(5, func(_ int, next func()) {
				th.Compute(m.Eng.Rand().Intn(100))
				l.AcquireTask(th, func() {
					v.FetchAddTask(th, 1, func(uint64) {
						l.ReleaseTask(th, func() { b.WaitTask(th, next) })
					})
				})
			}, th.Finish)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different end times: %d vs %d", a, b)
	}
}
