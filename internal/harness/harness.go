// Package harness regenerates every table and figure of the paper's
// evaluation (Section 7). Each function prints the same rows or series the
// paper reports and returns the data for programmatic checks. The cmd/
// wisync-bench tool and the repository's benchmark suite are thin wrappers
// around this package.
//
// Every sweep point — one (core count, configuration, kernel, length)
// combination — is an independent deterministic simulation: it builds its
// own engine from its own seed and shares no state with any other point.
// The harness therefore dispatches points across a worker pool (Options.
// Workers) and assembles rows in sweep order afterwards, so the output is
// bit-identical at every worker count, including sequential.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"wisync/internal/apps"
	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/fault"
	"wisync/internal/kernels"
	"wisync/internal/rfmodel"
	"wisync/internal/sim"
	"wisync/internal/stats"
	"wisync/internal/wireless"
)

// Options controls sweep sizes, parallelism and output.
type Options struct {
	// Quick shrinks the sweeps for fast iteration (CI, go test -short).
	Quick bool
	// Workers bounds how many sweep points simulate concurrently. Each
	// point is an independent engine with its own seed, and results are
	// written into pre-assigned row slots, so the rendered tables and
	// returned rows are bit-identical at every worker count. 0 (the
	// default) uses runtime.GOMAXPROCS(0); 1 forces sequential execution.
	Workers int
	// MAC selects the wireless Data channel's arbitration protocol for
	// every sweep point (zero value: the paper's carrier-sense backoff).
	// It has no effect on wired configurations. MACSweep ignores it — it
	// compares all protocols.
	MAC wireless.MACKind
	// Channel selects the channel-error model for every sweep point (zero
	// value: the paper's ideal channel, under which all output is
	// byte-identical to the pre-channel harness). No effect on wired
	// configurations.
	Channel channel.Params
	// Exec selects the workload execution mode for the full-application
	// sweeps (Fig10, Table5, Fig11). The zero value is the task
	// (continuation) mode — the fast path; ExecThread runs the blocking
	// reference interpreter. Simulated results are identical either way.
	Exec kernels.Exec
	// Faults applies a deterministic fault-injection plan to every sweep
	// point (nil: fault-free, output byte-identical to the pre-fault
	// harness). No effect on wired configurations.
	Faults *fault.Plan
	// Budget bounds each sweep point to this many cycles (0: unbounded);
	// a point still live at the budget panics out of its sweep with a
	// structured core.BudgetError instead of hanging the harness.
	Budget uint64
	// Verbose appends scheduler-internals diagnostics to each application
	// sweep: a "# sched" line aggregating timing-wheel hits, heap
	// fallbacks and recycled-step pool reuse across the sweep's engines.
	Verbose bool
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
}

// Config builds one sweep point's machine configuration with the
// option-level overrides (MAC protocol, channel, budget, faults) applied.
func (o Options) Config(kind config.Kind, cores int) config.Config {
	c := config.New(kind, cores).WithMAC(o.MAC).WithChannel(o.Channel).
		WithBudget(sim.Time(o.Budget))
	if kind.HasBM() {
		// A fault plan targets transceivers; wired points in the same
		// sweep (Baseline rows, speedup denominators) run fault-free,
		// like the other wireless-only option overrides.
		c = c.WithFaults(o.Faults)
	}
	return c
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// ForEach runs jobs 0..n-1 across min(workers, n) goroutines (workers <= 0
// means runtime.GOMAXPROCS(0)). Jobs must be independent and write only
// their own result slots; ForEach returns when all jobs finished. A panic
// in a job is re-raised in the caller after the pool drains, so worker
// goroutines never die silently.
func ForEach(workers, n int, job func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Value
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Keep the worker's stack: the re-panic below raises
					// on the caller's goroutine, where these frames are
					// otherwise gone.
					panicked.CompareAndSwap(nil,
						fmt.Sprintf("harness: sweep point panicked: %v\n%s", r, debug.Stack()))
				}
			}()
			for panicked.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// forEach is ForEach over the option's worker count.
func (o Options) forEach(n int, job func(int)) { ForEach(o.Workers, n, job) }

// Table4 reproduces Table 4: area and power of the transceiver plus two
// antennas against two reference cores at 22 nm.
func Table4(o Options) []rfmodel.Table4Row {
	rows := rfmodel.Table4()
	tb := stats.NewTable("Table 4: transceiver + 2 antennas (T+2A) vs cores at 22nm",
		"core", "core area mm2", "T+2A area mm2", "area %", "core TDP W", "T+2A mW", "power %")
	for _, r := range rows {
		tb.AddRow(r.Core.Name, r.Core.AreaMM2, fmt.Sprintf("%.2f", r.TxAreaMM2),
			fmt.Sprintf("%.1f", r.AreaPct), r.Core.TDPW,
			fmt.Sprintf("%.0f", r.TxPowerMW), fmt.Sprintf("%.1f", r.PowerPct))
	}
	fmt.Fprintln(o.out(), tb)
	return rows
}

// Fig7Row is one (core count, configuration) point of Figure 7.
type Fig7Row struct {
	Cores         int
	Kind          config.Kind
	CyclesPerIter float64
}

// Fig7 reproduces Figure 7: TightLoop cycles/iteration on all four
// configurations across core counts.
func Fig7(o Options) []Fig7Row {
	coreCounts := []int{16, 32, 64, 128, 256}
	iters := 25
	if o.Quick {
		coreCounts = []int{16, 64, 128}
		iters = 10
	}
	rows := make([]Fig7Row, 0, len(coreCounts)*len(config.Kinds))
	for _, n := range coreCounts {
		for _, k := range config.Kinds {
			rows = append(rows, Fig7Row{Cores: n, Kind: k})
		}
	}
	o.forEach(len(rows), func(i int) {
		r := &rows[i]
		r.CyclesPerIter = kernels.TightLoop(o.Config(r.Kind, r.Cores), iters).CyclesPerIteration()
	})
	tb := stats.NewTable("Figure 7: TightLoop execution time (cycles/iteration)",
		"cores", "Baseline", "Baseline+", "WiSyncNoT", "WiSync")
	for i := 0; i < len(rows); i += len(config.Kinds) {
		vals := make(map[config.Kind]float64, 4)
		for _, r := range rows[i : i+len(config.Kinds)] {
			vals[r.Kind] = r.CyclesPerIter
		}
		tb.AddRow(rows[i].Cores, f0(vals[config.Baseline]), f0(vals[config.BaselinePlus]),
			f0(vals[config.WiSyncNoT]), f0(vals[config.WiSync]))
	}
	fmt.Fprintln(o.out(), tb)
	return rows
}

// Fig8Row is one (loop, cores, vector length, configuration) point of
// Figure 8.
type Fig8Row struct {
	Loop   int
	Cores  int
	Length int
	Kind   config.Kind
	Cycles sim.Time
}

// Fig8 reproduces Figure 8: Livermore loops 2, 3 and 6 execution time
// versus vector length at 64 and 128 cores.
func Fig8(o Options) []Fig8Row {
	lens23 := []int{16, 64, 256, 1024, 4096, 16384}
	lens6 := []int{16, 32, 64, 128, 256, 512, 1024, 2048}
	coreCounts := []int{64, 128}
	passes := 2
	if o.Quick {
		lens23 = []int{16, 256, 4096}
		lens6 = []int{16, 128, 512}
		coreCounts = []int{64}
		passes = 1
	}
	lensFor := func(loop int) []int {
		if loop == 6 {
			return lens6
		}
		return lens23
	}
	var rows []Fig8Row
	for _, cores := range coreCounts {
		for _, loop := range []int{2, 3, 6} {
			for _, n := range lensFor(loop) {
				for _, k := range config.Kinds {
					rows = append(rows, Fig8Row{Loop: loop, Cores: cores, Length: n, Kind: k})
				}
			}
		}
	}
	o.forEach(len(rows), func(i int) {
		r := &rows[i]
		cfg := o.Config(r.Kind, r.Cores)
		var res kernels.Result
		switch r.Loop {
		case 2:
			res, _ = kernels.Livermore2(cfg, r.Length, passes)
		case 3:
			res, _ = kernels.Livermore3(cfg, r.Length, passes)
		case 6:
			res, _ = kernels.Livermore6(cfg, r.Length)
		}
		r.Cycles = res.Cycles
	})
	i := 0
	for _, cores := range coreCounts {
		for _, loop := range []int{2, 3, 6} {
			tb := stats.NewTable(
				fmt.Sprintf("Figure 8: Livermore loop %d, %d cores (cycles)", loop, cores),
				"length", "Baseline", "Baseline+", "WiSyncNoT", "WiSync")
			for range lensFor(loop) {
				vals := make(map[config.Kind]sim.Time, 4)
				for _, r := range rows[i : i+len(config.Kinds)] {
					vals[r.Kind] = r.Cycles
				}
				tb.AddRow(rows[i].Length, vals[config.Baseline], vals[config.BaselinePlus],
					vals[config.WiSyncNoT], vals[config.WiSync])
				i += len(config.Kinds)
			}
			fmt.Fprintln(o.out(), tb)
		}
	}
	return rows
}

// Fig9Row is one (kernel, cores, critical-section size, configuration)
// point of Figure 9.
type Fig9Row struct {
	Kernel  kernels.CASKind
	Cores   int
	CSInstr int
	Kind    config.Kind
	Per1000 float64
}

// Fig9 reproduces Figure 9: successful-CAS throughput of the FIFO, LIFO
// and ADD kernels versus critical-section size, Baseline versus WiSync, at
// 64 and 128 cores.
func Fig9(o Options) []Fig9Row {
	sizes := []int{65536, 16384, 4096, 1024, 256, 64, 16, 4}
	coreCounts := []int{64, 128}
	duration := sim.Time(300000)
	if o.Quick {
		sizes = []int{16384, 1024, 16}
		coreCounts = []int{64}
		duration = 60000
	}
	kinds := []config.Kind{config.Baseline, config.WiSync}
	kernelKinds := []kernels.CASKind{kernels.FIFO, kernels.LIFO, kernels.ADD}
	var rows []Fig9Row
	for _, cores := range coreCounts {
		for _, kn := range kernelKinds {
			for _, cs := range sizes {
				for _, k := range kinds {
					rows = append(rows, Fig9Row{Kernel: kn, Cores: cores, CSInstr: cs, Kind: k})
				}
			}
		}
	}
	o.forEach(len(rows), func(i int) {
		r := &rows[i]
		r.Per1000 = kernels.CASKernel(o.Config(r.Kind, r.Cores), r.Kernel, r.CSInstr, duration).Per1000
	})
	i := 0
	for _, cores := range coreCounts {
		for _, kn := range kernelKinds {
			tb := stats.NewTable(
				fmt.Sprintf("Figure 9: %v CAS throughput per 1000 cycles, %d cores", kn, cores),
				"cs instr", "Baseline", "WiSync")
			for range sizes {
				vals := make(map[config.Kind]float64, 2)
				for _, r := range rows[i : i+len(kinds)] {
					vals[r.Kind] = r.Per1000
				}
				tb.AddRow(rows[i].CSInstr, f2(vals[config.Baseline]), f2(vals[config.WiSync]))
				i += len(kinds)
			}
			fmt.Fprintln(o.out(), tb)
		}
	}
	return rows
}

// AppRow is one application's Figure 10 / Table 5 data.
type AppRow struct {
	Name     string
	Speedup  map[config.Kind]float64
	UtilWNoT float64 // Data-channel utilization %, WiSyncNoT
	UtilW    float64 // Data-channel utilization %, WiSync
	// Sched aggregates the scheduler-internals counters over the app's
	// four runs, for Options.Verbose diagnostics.
	Sched sim.SchedStats
	// Energy aggregates the Data-channel energy ledger over the app's
	// four runs, for the "# energy" sweep summaries.
	Energy wireless.EnergyStats
}

// fprintSched renders the aggregated scheduler counters of a sweep as a
// self-describing comment line, when Options.Verbose asks for it.
func fprintSched(o Options, what string, s sim.SchedStats) {
	if !o.Verbose {
		return
	}
	fmt.Fprintf(o.out(), "# sched %s: wheel-events=%d heap-fallbacks=%d step-pool-hits=%d step-pool-misses=%d\n",
		what, s.WheelEvents, s.HeapEvents, s.StepPoolHits, s.StepPoolMisses)
}

// fprintEnergy renders the aggregated Data-channel energy ledger of a sweep
// as a self-describing comment line. It prints under Options.Verbose or
// whenever a lossy channel is selected; on the default quiet ideal-channel
// runs it prints nothing, keeping the harness output byte-identical to the
// pre-channel tool.
func fprintEnergy(o Options, what string, e wireless.EnergyStats) {
	if !o.Verbose && o.Channel.Profile == channel.Ideal {
		return
	}
	fmt.Fprintf(o.out(), "# energy %s: %s\n", what, e)
}

// appKinds is the per-application run order of Fig10 and Fig11: the
// Baseline run first (the speedup denominator), then the three compared
// configurations.
var appKinds = [4]config.Kind{config.Baseline, config.BaselinePlus, config.WiSyncNoT, config.WiSync}

// Fig10 reproduces Figure 10 (speedups over Baseline on the PARSEC and
// SPLASH-2 suites at 64 cores) and collects the Table 5 utilizations from
// the same runs.
func Fig10(o Options) []AppRow {
	base := o.Config(config.Baseline, 64)
	profiles := apps.Profiles()
	if o.Quick {
		profiles = profiles[:0:0]
		for _, name := range []string{"blackscholes", "streamcluster", "dedup",
			"ocean-c", "radiosity", "raytrace", "water-ns", "fft"} {
			p, _ := apps.ByName(name)
			p.Iterations = 4
			profiles = append(profiles, p)
		}
	}
	results := make([]apps.Result, len(profiles)*len(appKinds))
	o.forEach(len(results), func(i int) {
		cfg := base
		cfg.Kind = appKinds[i%len(appKinds)]
		results[i] = apps.RunExec(cfg, profiles[i/len(appKinds)], o.Exec)
	})
	var rows []AppRow
	tb := stats.NewTable("Figure 10: speedup over Baseline, 64 cores",
		"app", "Baseline+", "WiSyncNoT", "WiSync")
	var bp, wnt, w []float64
	for pi, p := range profiles {
		row := AppRow{Name: p.Name, Speedup: map[config.Kind]float64{config.Baseline: 1}}
		baseline := results[pi*len(appKinds)]
		row.Sched.Add(baseline.Sched)
		row.Energy.Add(baseline.Energy)
		for ki, k := range appKinds[1:] {
			r := results[pi*len(appKinds)+1+ki]
			row.Speedup[k] = float64(baseline.Cycles) / float64(r.Cycles)
			row.Sched.Add(r.Sched)
			row.Energy.Add(r.Energy)
			switch k {
			case config.WiSyncNoT:
				row.UtilWNoT = r.DataUtilPct
			case config.WiSync:
				row.UtilW = r.DataUtilPct
			}
		}
		rows = append(rows, row)
		bp = append(bp, row.Speedup[config.BaselinePlus])
		wnt = append(wnt, row.Speedup[config.WiSyncNoT])
		w = append(w, row.Speedup[config.WiSync])
		tb.AddRow(p.Name, f2(row.Speedup[config.BaselinePlus]),
			f2(row.Speedup[config.WiSyncNoT]), f2(row.Speedup[config.WiSync]))
	}
	tb.AddRow("mean", f2(stats.Mean(bp)), f2(stats.Mean(wnt)), f2(stats.Mean(w)))
	tb.AddRow("geoMean", f2(stats.GeoMean(bp)), f2(stats.GeoMean(wnt)), f2(stats.GeoMean(w)))
	fmt.Fprintln(o.out(), tb)
	fprintSched(o, "fig10", sumSched(rows))
	fprintEnergy(o, "fig10", sumEnergy(rows))
	return rows
}

// sumSched aggregates the scheduler counters across app rows.
func sumSched(rows []AppRow) sim.SchedStats {
	var s sim.SchedStats
	for _, r := range rows {
		s.Add(r.Sched)
	}
	return s
}

// sumEnergy aggregates the energy ledger across app rows.
func sumEnergy(rows []AppRow) wireless.EnergyStats {
	var e wireless.EnergyStats
	for _, r := range rows {
		e.Add(r.Energy)
	}
	return e
}

// Table5 reproduces Table 5: Data-channel utilization of WiSyncNoT and
// WiSync for the most demanding applications plus the geometric mean over
// the whole suite. It reuses Fig10's runs.
func Table5(o Options, rows []AppRow) {
	if rows == nil {
		silent := o
		silent.Out = nil
		rows = Fig10(silent)
	}
	demanding := []string{"streamcluster", "radiosity", "water-ns",
		"fluidanimate", "raytrace", "ocean-c", "ocean-nc"}
	tb := stats.NewTable("Table 5: Data channel utilization (% of cycles)",
		"app", "WiSyncNoT", "WiSync")
	for _, name := range demanding {
		for _, r := range rows {
			if r.Name == name {
				tb.AddRow(name, f2(r.UtilWNoT), f2(r.UtilW))
			}
		}
	}
	var wt, w []float64
	for _, r := range rows {
		// Geometric mean over nonzero values (zero utilization enters
		// as a small epsilon, as a log-scale mean requires).
		wt = append(wt, r.UtilWNoT+0.005)
		w = append(w, r.UtilW+0.005)
	}
	tb.AddRow("GM(all)", f2(stats.GeoMean(wt)), f2(stats.GeoMean(w)))
	fmt.Fprintln(o.out(), tb)
	fprintSched(o, "table5", sumSched(rows))
	fprintEnergy(o, "table5", sumEnergy(rows))
}

// Fig11Row is one sensitivity point: geomean speedup over Baseline under a
// Table 6 variant.
type Fig11Row struct {
	Variant config.Variant
	Kind    config.Kind
	GeoMean float64
}

// Fig11 reproduces Figure 11: geometric-mean application speedups over
// Baseline under the Table 6 memory and network variants, 64 cores.
func Fig11(o Options) []Fig11Row {
	profiles := apps.Profiles()
	if o.Quick {
		profiles = profiles[:0:0]
		for _, name := range []string{"streamcluster", "ocean-c", "radiosity", "fft", "blackscholes"} {
			p, _ := apps.ByName(name)
			p.Iterations = 3
			profiles = append(profiles, p)
		}
	}
	// One task per (variant, profile, kind) run; all independent.
	nk := len(appKinds)
	results := make([]apps.Result, len(config.Variants)*len(profiles)*nk)
	o.forEach(len(results), func(i int) {
		v := config.Variants[i/(len(profiles)*nk)]
		p := profiles[i/nk%len(profiles)]
		cfg := o.Config(config.Baseline, 64).WithVariant(v)
		cfg.Kind = appKinds[i%nk]
		results[i] = apps.RunExec(cfg, p, o.Exec)
	})
	var rows []Fig11Row
	tb := stats.NewTable("Figure 11: geomean speedup over Baseline by variant, 64 cores",
		"variant", "Baseline+", "WiSyncNoT", "WiSync")
	for vi, v := range config.Variants {
		acc := map[config.Kind][]float64{}
		for pi := range profiles {
			base := results[(vi*len(profiles)+pi)*nk]
			for ki, k := range appKinds[1:] {
				r := results[(vi*len(profiles)+pi)*nk+1+ki]
				acc[k] = append(acc[k], float64(base.Cycles)/float64(r.Cycles))
			}
		}
		for _, k := range appKinds[1:] {
			rows = append(rows, Fig11Row{Variant: v, Kind: k, GeoMean: stats.GeoMean(acc[k])})
		}
		tb.AddRow(v.String(), f2(stats.GeoMean(acc[config.BaselinePlus])),
			f2(stats.GeoMean(acc[config.WiSyncNoT])), f2(stats.GeoMean(acc[config.WiSync])))
	}
	fmt.Fprintln(o.out(), tb)
	var sched sim.SchedStats
	var energy wireless.EnergyStats
	for _, r := range results {
		sched.Add(r.Sched)
		energy.Add(r.Energy)
	}
	fprintSched(o, "fig11", sched)
	fprintEnergy(o, "fig11", energy)
	return rows
}

// All regenerates every table and figure in paper order.
func All(o Options) {
	Table4(o)
	Fig7(o)
	Fig8(o)
	Fig9(o)
	rows := Fig10(o)
	Table5(o, rows)
	Fig11(o)
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
