// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus ablations of the design choices listed in
// docs/ARCHITECTURE.md ("Substitutions and ablations").
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each benchmark iteration regenerates the corresponding table/figure with
// reduced sweep sizes (the full-size sweeps are the cmd/wisync-bench tool).
// Reported ns/op is wall time to reproduce the experiment; custom metrics
// carry headline simulated results so regressions in *shape* show up in
// benchmark diffs.
package wisync_test

import (
	"context"
	"testing"

	"wisync/internal/apps"
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/harness"
	"wisync/internal/kernels"
	"wisync/internal/sim"
	"wisync/internal/stats"
	"wisync/internal/syncprims"
	"wisync/internal/wireless"
)

func quickOpts() harness.Options { return harness.Options{Quick: true} }

// BenchmarkTable4AreaPower regenerates Table 4 (analytic RF scaling model).
func BenchmarkTable4AreaPower(b *testing.B) {
	var atomAreaPct float64
	for i := 0; i < b.N; i++ {
		rows := harness.Table4(quickOpts())
		atomAreaPct = rows[1].AreaPct
	}
	b.ReportMetric(atomAreaPct, "atom-area-%")
}

// BenchmarkFig7TightLoop regenerates Figure 7 (TightLoop vs core count).
func BenchmarkFig7TightLoop(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows := harness.Fig7(quickOpts())
		var base, w float64
		for _, r := range rows {
			if r.Cores == 128 {
				switch r.Kind {
				case config.Baseline:
					base = r.CyclesPerIter
				case config.WiSync:
					w = r.CyclesPerIter
				}
			}
		}
		speedup = base / w
	}
	b.ReportMetric(speedup, "baseline/wisync@128c")
}

// BenchmarkFig8Livermore regenerates Figure 8 (Livermore loops 2, 3, 6).
func BenchmarkFig8Livermore(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		rows := harness.Fig8(quickOpts())
		var base, w float64
		for _, r := range rows {
			if r.Loop == 2 && r.Length == 16 && r.Cores == 64 {
				switch r.Kind {
				case config.Baseline:
					base = float64(r.Cycles)
				case config.WiSync:
					w = float64(r.Cycles)
				}
			}
		}
		adv = base / w
	}
	b.ReportMetric(adv, "loop2-n16-advantage")
}

// BenchmarkFig9CAS regenerates Figure 9 (CAS throughput).
func BenchmarkFig9CAS(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rows := harness.Fig9(quickOpts())
		var base, w float64
		for _, r := range rows {
			if r.Kernel == kernels.ADD && r.CSInstr == 16 && r.Cores == 64 {
				switch r.Kind {
				case config.Baseline:
					base = r.Per1000
				case config.WiSync:
					w = r.Per1000
				}
			}
		}
		gap = w / base
	}
	b.ReportMetric(gap, "contended-gap-x")
}

// BenchmarkFig10Apps regenerates Figure 10 (application speedups).
func BenchmarkFig10Apps(b *testing.B) {
	var gm float64
	for i := 0; i < b.N; i++ {
		rows := harness.Fig10(quickOpts())
		var w []float64
		for _, r := range rows {
			w = append(w, r.Speedup[config.WiSync])
		}
		gm = stats.GeoMean(w)
	}
	b.ReportMetric(gm, "wisync-geomean")
}

// BenchmarkTable5Utilization regenerates Table 5 (channel utilization).
func BenchmarkTable5Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table5(quickOpts(), nil)
	}
}

// BenchmarkFig11Sensitivity regenerates Figure 11 (Table 6 variants).
func BenchmarkFig11Sensitivity(b *testing.B) {
	var slowNetGM float64
	for i := 0; i < b.N; i++ {
		rows := harness.Fig11(quickOpts())
		for _, r := range rows {
			if r.Variant == config.SlowNet && r.Kind == config.WiSync {
				slowNetGM = r.GeoMean
			}
		}
	}
	b.ReportMetric(slowNetGM, "slownet-geomean")
}

// BenchmarkTxnContended is the continuation-rewrite workload: every core
// hammers one synchronization word with fetch&add, so the entire run is
// back-to-back contended transactions — directory-line storms through mem
// on Baseline, broadcast RMW storms through bmem/wireless on WiSyncNoT.
// ns/op is simulator wall time; cyc is the simulated result, which must not
// move when the engine changes (the golden-conformance suite pins the same
// paths exactly).
func BenchmarkTxnContended(b *testing.B) {
	const cores = 64
	const opsPerCore = 50
	b.Run("mem", func(b *testing.B) {
		var cyc float64
		for i := 0; i < b.N; i++ {
			m := core.NewMachine(config.New(config.Baseline, cores))
			line := m.AllocLine()
			m.SpawnAllTasks(func(t *core.Task) {
				repeat(opsPerCore, func(_ int, next func()) {
					t.FetchAdd(line, 1, func(uint64) { next() })
				}, t.Finish)
			})
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if got := m.Mem.Peek(line); got != cores*opsPerCore {
				b.Fatalf("fetch&add lost updates: %d != %d", got, cores*opsPerCore)
			}
			cyc = float64(m.Now())
		}
		b.ReportMetric(cyc, "cyc")
	})
	b.Run("bmem", func(b *testing.B) {
		var cyc float64
		for i := 0; i < b.N; i++ {
			m := core.NewMachine(config.New(config.WiSyncNoT, cores))
			addr, err := m.BM.AllocBare(1, false)
			if err != nil {
				b.Fatal(err)
			}
			m.SpawnAllTasks(func(t *core.Task) {
				repeat(opsPerCore, func(_ int, next func()) {
					t.BMFetchAdd(addr, 1, func(uint64) { next() })
				}, t.Finish)
			})
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if got := m.BM.Peek(addr); got != cores*opsPerCore {
				b.Fatalf("broadcast fetch&add lost updates: %d != %d", got, cores*opsPerCore)
			}
			cyc = float64(m.Now())
		}
		b.ReportMetric(cyc, "cyc")
	})
}

// BenchmarkTaskTightLoop times the scaling regime that motivated the
// continuation form: a single 256-core TightLoop point per machine
// substrate (Baseline's directory storms, WiSyncNoT's Data-channel
// storms). cyc is the simulated result, reported so benchmark diffs catch
// drift.
func BenchmarkTaskTightLoop(b *testing.B) {
	const cores = 256
	const iters = 10
	run := func(kind config.Kind) func(b *testing.B) {
		return func(b *testing.B) {
			var cyc float64
			for i := 0; i < b.N; i++ {
				r := kernels.TightLoop(config.New(kind, cores), iters)
				cyc = float64(r.Cycles)
			}
			b.ReportMetric(cyc, "cyc")
		}
	}
	b.Run("task-baseline", run(config.Baseline))
	b.Run("task-wnot", run(config.WiSyncNoT))
}

// BenchmarkFig10App pins the full-application path on one representative
// profile: streamcluster (the headline Figure 10 bar — barrier-phase bound
// with reductions) at the Fig10 geometry. ns/op is simulator wall time and
// allocs/op the interpreter's allocation rate, which must stay near zero;
// cyc is the simulated result, reported so benchmark diffs catch drift.
func BenchmarkFig10App(b *testing.B) {
	p, ok := apps.ByName("streamcluster")
	if !ok {
		b.Fatal("streamcluster profile missing")
	}
	p.Iterations = 4
	b.Run("task", func(b *testing.B) {
		cfg := config.New(config.WiSyncNoT, 64)
		var cyc float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := apps.Run(cfg, p)
			cyc = float64(r.Cycles)
		}
		b.ReportMetric(cyc, "cyc")
	})
}

// BenchmarkSteadyStatePoint times one point on a machine that has run it
// before, as every point after the first runs in a sweep: the machine keeps
// its layers' storage and its workload layer's steps, primitives and shared
// state, so B/op and allocs/op are the point's result and data vectors
// (TestSteadyStatePointsAllocate holds them to a budget).
func BenchmarkSteadyStatePoint(b *testing.B) {
	for _, s := range []harness.PointSpec{
		{Workload: "livermore6", Kind: config.WiSync, Cores: 64, Seed: 1},
		{Workload: "cas-fifo", Kind: config.WiSyncNoT, Cores: 64, Seed: 1},
		{Workload: "app:dedup", Kind: config.BaselinePlus, Cores: 64, Seed: 1, Iters: 4},
	} {
		b.Run(s.Workload, func(b *testing.B) {
			// Two runs warm the machine: the second still regrows the
			// request arrays of contention slots that the first run's
			// slots, handed out in another order, had grown.
			for range 2 {
				if _, err := s.Simulate(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Simulate(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations (docs/ARCHITECTURE.md, "Substitutions and ablations") ----

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

// barrierEpisodes runs episodes back-to-back barrier episodes on every
// core of m and returns the cycles per episode.
func barrierEpisodes(b *testing.B, m *core.Machine, episodes int) float64 {
	bar := syncprims.NewFactory(m).NewTaskBarrier(nil)
	m.SpawnAllTasks(func(t *core.Task) {
		repeat(episodes, func(_ int, next func()) { bar.WaitTask(t, next) }, t.Finish)
	})
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	return float64(m.Now()) / float64(episodes)
}

// benchBarrier measures one barrier configuration's cycles/episode.
func benchBarrier(b *testing.B, cfg config.Config, episodes int) float64 {
	var per float64
	for i := 0; i < b.N; i++ {
		per = barrierEpisodes(b, core.NewMachine(cfg), episodes)
	}
	return per
}

// BenchmarkAblationToneVsData is the paper's own ablation: the Tone
// channel on/off for barrier bursts (WiSync vs WiSyncNoT).
func BenchmarkAblationToneVsData(b *testing.B) {
	b.Run("tone", func(b *testing.B) {
		b.ReportMetric(benchBarrier(b, config.New(config.WiSync, 64), 10), "cyc/barrier")
	})
	b.Run("data", func(b *testing.B) {
		b.ReportMetric(benchBarrier(b, config.New(config.WiSyncNoT, 64), 10), "cyc/barrier")
	})
}

// BenchmarkAblationBackoff compares the Section 5.3 persistent backoff,
// classic per-message Ethernet backoff, and a constant window.
func BenchmarkAblationBackoff(b *testing.B) {
	run := func(name string, mod func(*wireless.Params)) {
		b.Run(name, func(b *testing.B) {
			cfg := config.New(config.WiSyncNoT, 64)
			mod(&cfg.Wireless)
			b.ReportMetric(benchBarrier(b, cfg, 10), "cyc/barrier")
		})
	}
	run("persistent", func(p *wireless.Params) { p.Backoff = wireless.BackoffPersistent })
	run("per-message", func(p *wireless.Params) { p.Backoff = wireless.BackoffPerMessage })
	run("adaptive", func(p *wireless.Params) { p.Backoff = wireless.BackoffAdaptive })
	run("constant16", func(p *wireless.Params) { p.ConstantBackoffWindow = 16 })
}

// BenchmarkAblationDeferPolicy compares the FIFO busy-deferral drain with
// pure re-contention CSMA.
func BenchmarkAblationDeferPolicy(b *testing.B) {
	run := func(name string, d wireless.DeferPolicy) {
		b.Run(name, func(b *testing.B) {
			cfg := config.New(config.WiSyncNoT, 64)
			cfg.Wireless.Defer = d
			b.ReportMetric(benchBarrier(b, cfg, 10), "cyc/barrier")
		})
	}
	run("fifo", wireless.DeferFIFO)
	run("contend", wireless.DeferContend)
}

// BenchmarkAblationRMWProtocol compares grant-time RMW evaluation with the
// literal Section 4.2.1 early-read + AFB retry protocol.
func BenchmarkAblationRMWProtocol(b *testing.B) {
	run := func(name string, early bool) {
		b.Run(name, func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				cfg := config.New(config.WiSyncNoT, 64)
				m := core.NewMachine(cfg)
				m.BM.SetRMWEarlyRead(early)
				per = barrierEpisodes(b, m, 10)
			}
			b.ReportMetric(per, "cyc/barrier")
		})
	}
	run("at-grant", false)
	run("early-read", true)
}

// BenchmarkAblationTreeBroadcast compares Baseline+ (tournament barrier
// plus the virtual-tree NoC broadcast) with Baseline (central barrier, no
// tree). The machine kind picks both the barrier software
// (syncprims.Factory.NewTaskBarrier) and the tree, so the gap measures the
// two together; TestTreeBroadcastSpeedsInvalidation (internal/mem) measures
// the tree alone, on one invalidation of 63 sharers.
func BenchmarkAblationTreeBroadcast(b *testing.B) {
	b.Run("tree", func(b *testing.B) {
		b.ReportMetric(benchBarrier(b, config.New(config.BaselinePlus, 64), 10), "cyc/barrier")
	})
	b.Run("release-storm-baseline", func(b *testing.B) {
		b.ReportMetric(benchBarrier(b, config.New(config.Baseline, 64), 10), "cyc/barrier")
	})
}

// BenchmarkAblationChannelBandwidth compares the conservative 5-cycle
// (19 Gb/s) message with the 4-cycle (32 Gb/s) projection of Section 2.
func BenchmarkAblationChannelBandwidth(b *testing.B) {
	run := func(name string, msgCycles sim.Time) {
		b.Run(name, func(b *testing.B) {
			cfg := config.New(config.WiSyncNoT, 64)
			cfg.Wireless.MsgCycles = msgCycles
			b.ReportMetric(benchBarrier(b, cfg, 10), "cyc/barrier")
		})
	}
	run("19gbps-5cyc", 5)
	run("32gbps-4cyc", 4)
}

// BenchmarkAblationBulkVsSingles compares one 15-cycle Bulk message with
// four single messages for a 4-word producer-consumer transfer.
func BenchmarkAblationBulkVsSingles(b *testing.B) {
	run := func(name string, words int, batches int) {
		b.Run(name, func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				m := core.NewMachine(config.New(config.WiSync, 4))
				f := syncprims.NewFactory(m)
				var pcs []*syncprims.PC
				if words == 4 {
					pcs = []*syncprims.PC{f.NewPC(4)}
				} else {
					pcs = []*syncprims.PC{f.NewPC(1), f.NewPC(1), f.NewPC(1), f.NewPC(1)}
				}
				m.SpawnTask("producer", 0, 1, func(t *core.Task) {
					repeat(batches, func(n int, next func()) {
						if words == 4 {
							pcs[0].ProduceTask(t, []uint64{1, 2, 3, 4}, next)
							return
						}
						repeat(len(pcs), func(k int, nextPC func()) {
							pcs[k].ProduceTask(t, []uint64{uint64(n)}, nextPC)
						}, next)
					}, t.Finish)
				})
				m.SpawnTask("consumer", 3, 1, func(t *core.Task) {
					buf4 := make([]uint64, 4)
					buf1 := make([]uint64, 1)
					repeat(batches, func(_ int, next func()) {
						if words == 4 {
							pcs[0].ConsumeTask(t, buf4, next)
							return
						}
						repeat(len(pcs), func(k int, nextPC func()) {
							pcs[k].ConsumeTask(t, buf1, nextPC)
						}, next)
					}, t.Finish)
				})
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				per = float64(m.Now()) / float64(batches)
			}
			b.ReportMetric(per, "cyc/4words")
		})
	}
	run("bulk", 4, 40)
	run("singles", 1, 40)
}
