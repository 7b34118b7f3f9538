package harness

import (
	"fmt"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
	"wisync/internal/syncprims"
)

// TestKitchenSink runs every synchronization primitive concurrently on
// every machine configuration — locks and barriers interleaved with
// reductions, eurekas, producer-consumer traffic and shared-memory reads —
// and checks functional outcomes plus the coherence invariants afterwards.
// This is the system's widest single integration point.
func TestKitchenSink(t *testing.T) {
	const cores, rounds = 32, 4
	for _, kind := range config.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			m := core.NewMachine(config.New(kind, cores))
			f := syncprims.NewFactory(m)
			barrier := f.NewTaskBarrier(nil)
			lock := f.NewTaskLock()
			red := f.NewReducer(0)
			eur := f.NewEureka()
			pc := f.NewPC(1)
			counter := f.NewTaskVar(0)
			sharedBase := m.AllocArray(256)

			var inCS, maxCS int
			var consumed []uint64
			m.SpawnAllTasks(func(th *core.Task) {
				rng := sim.NewRand(uint64(th.Core) + 1234)
				r, reads := 0, 0
				var round, read, critical, update, handoff, signal func()
				round = func() {
					if r == rounds {
						th.Finish()
						return
					}
					th.Compute(rng.Intn(300))
					reads = 0
					read()
				}
				// Background coherence traffic.
				read = func() {
					if reads == 4 {
						lock.AcquireTask(th, critical)
						return
					}
					reads++
					th.Read(sharedBase+uint64(rng.Intn(256)*8), func(uint64) { read() })
				}
				// Mutual exclusion.
				critical = func() {
					inCS++
					if inCS > maxCS {
						maxCS = inCS
					}
					th.Compute(15)
					th.Sync(func() {
						inCS--
						lock.ReleaseTask(th, func() {
							// Reduction and lock-free updates.
							red.AddTask(th, 1, func(uint64) { update() })
						})
					})
				}
				update = func() {
					counter.LoadTask(th, func(old uint64) {
						counter.LoadTask(th, func(cur uint64) {
							counter.CASTask(th, old, cur+1, func(ok bool) {
								if !ok {
									th.Instr(8)
									update()
									return
								}
								handoff()
							})
						})
					})
				}
				// Producer-consumer across two fixed cores.
				handoff = func() {
					switch th.Core {
					case 0:
						pc.ProduceTask(th, []uint64{uint64(r + 1)}, signal)
					case cores - 1:
						buf := make([]uint64, 1)
						pc.ConsumeTask(th, buf, func() {
							consumed = append(consumed, buf[0])
							signal()
						})
					default:
						signal()
					}
				}
				// One thread triggers the eureka each round; all ack.
				signal = func() {
					next := func() {
						eur.Ack(th)
						r++
						barrier.WaitTask(th, round)
					}
					if th.Core == r%cores {
						eur.TriggerTask(th, next)
					} else {
						eur.WaitTriggeredTask(th, next)
					}
				}
				round()
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if maxCS != 1 {
				t.Errorf("mutual exclusion violated: %d threads in CS", maxCS)
			}
			var redVal uint64
			m.SpawnTask("check", 0, 1, func(th *core.Task) {
				red.ValueTask(th, func(v uint64) {
					redVal = v
					th.Finish()
				})
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if want := uint64(cores * rounds); redVal != want {
				t.Errorf("reduction = %d, want %d", redVal, want)
			}
			if len(consumed) != rounds {
				t.Fatalf("consumed %d items, want %d", len(consumed), rounds)
			}
			for i, v := range consumed {
				if v != uint64(i+1) {
					t.Errorf("consumed[%d] = %d, want %d", i, v, i+1)
				}
			}
			if err := m.Mem.CheckInvariants(); err != nil {
				t.Errorf("coherence invariants after kitchen sink: %v", err)
			}
		})
	}
}

// TestKitchenSinkDeterministic re-runs one configuration and requires
// bit-identical end times: the whole stack, including backoff randomness
// and workload jitter, must be reproducible.
func TestKitchenSinkDeterministic(t *testing.T) {
	run := func() sim.Time {
		m := core.NewMachine(config.New(config.WiSync, 16))
		f := syncprims.NewFactory(m)
		b := f.NewTaskBarrier(nil)
		l := f.NewTaskLock()
		red := f.NewReducer(0)
		m.SpawnAllTasks(func(th *core.Task) {
			rng := sim.NewRand(uint64(th.Core) * 7)
			r := 0
			var round func()
			round = func() {
				if r == 5 {
					th.Finish()
					return
				}
				r++
				th.Compute(rng.Intn(200))
				l.AcquireTask(th, func() {
					th.Compute(10)
					l.ReleaseTask(th, func() {
						red.AddTask(th, 1, func(uint64) { b.WaitTask(th, round) })
					})
				})
			}
			round()
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// TestAllCoreCountsAllKinds smoke-tests every paper core count on every
// configuration with a small barrier loop — the full cross product the
// evaluation sweeps.
func TestAllCoreCountsAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product sweep")
	}
	for _, cores := range []int{16, 32, 64, 128, 256} {
		for _, kind := range config.Kinds {
			t.Run(fmt.Sprintf("%s-%d", kind, cores), func(t *testing.T) {
				m := core.NewMachine(config.New(kind, cores))
				b := syncprims.NewFactory(m).NewTaskBarrier(nil)
				done := 0
				m.SpawnAllTasks(func(th *core.Task) {
					e := 0
					var episode func()
					episode = func() {
						if e == 2 {
							done++
							th.Finish()
							return
						}
						e++
						th.Compute(th.Core % 17)
						b.WaitTask(th, episode)
					}
					episode()
				})
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if done != cores {
					t.Errorf("done = %d, want %d", done, cores)
				}
			})
		}
	}
}
