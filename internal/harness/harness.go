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
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wisync/internal/apps"
	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/kernels"
	"wisync/internal/rfmodel"
	"wisync/internal/sim"
	"wisync/internal/stats"
	"wisync/internal/wireless"
)

// Options controls sweep sizes, parallelism, output and the point template.
type Options struct {
	// Quick shrinks the sweeps for fast iteration (CI, go test -short).
	Quick bool
	// Workers bounds how many sweep points simulate concurrently. Each
	// point is an independent engine with its own seed, and results are
	// written into pre-assigned row slots, so the rendered tables and
	// returned rows are bit-identical at every worker count. 0 (the
	// default) uses runtime.GOMAXPROCS(0); 1 forces sequential execution.
	Workers int
	// Point is the template every figure point starts from. A figure sets
	// the fields its Figures entry lists in Sets — its workloads with their
	// parameters, machine kinds and core counts, and Fig11's variant or
	// MACSweep's MAC — and takes every other field from here: MAC, variant,
	// channel, fault plan, budget, watchdog and seed. A zero seed is seed 1,
	// and the fault plan applies to wireless points only: wired points in
	// the same figure (Baseline rows, speedup denominators) run fault-free.
	// The zero template is the paper's setup.
	Point PointSpec
	// Verbose appends scheduler-internals diagnostics to each application
	// sweep: a "# sched" line aggregating timing-wheel hits, heap
	// fallbacks and recycled-step pool reuse across the sweep's engines.
	Verbose bool
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
}

// point starts one figure point from the template: the figure's workload
// on one machine kind and core count, with the workload parameters cleared
// for the figure to set.
func (o Options) point(workload string, kind config.Kind, cores int) PointSpec {
	p := o.Point
	p.Workload, p.Kind, p.Cores = workload, kind, cores
	p.Iters, p.N, p.Passes, p.CS, p.Duration = 0, 0, 0, 0, 0
	if p.Seed == 0 {
		p.Seed = 1
	}
	if !kind.HasBM() {
		p.Faults = nil
	}
	return p
}

// simulate runs a figure's points across the worker pool and returns their
// typed results in point order. A failed point — a budget trip, a
// livelock, an invalid template — panics out of the figure with its error:
// a figure cannot render around a hole.
func (o Options) simulate(pts []PointSpec) []Result {
	// The points share the template's plan and each normalizes it: put it
	// in canonical order once, before the pool, so none reorders it under
	// another.
	o.Point.Faults.Normalize()
	res := make([]Result, len(pts))
	o.forEach(len(pts), func(i int) {
		r, err := pts[i].Simulate(context.Background())
		if err != nil {
			panic(err)
		}
		res[i] = r
	})
	return res
}

// Figure is one table or figure of the evaluation as data: the point
// fields it sets itself, the points it runs and the function that renders
// it. wisync-bench's figure subcommands are this list.
type Figure struct {
	Name string
	// Sets names, by their JSON keys, the point fields the figure sets on
	// its points; every other field comes from Options.Point.
	Sets []string
	// Points lists the points the figure runs, in run order; nil for
	// Table 4, which runs no simulation.
	Points func(Options) []PointSpec
	Run    func(Options)
}

// figureSets lists the point fields a simulating figure sets: its
// workloads, machine kinds and core counts, and with a workload every
// workload parameter, so a template value cannot leak into one the figure
// leaves at its default. extra adds figure-specific fields.
func figureSets(extra ...string) []string {
	return append([]string{"workload", "kind", "cores", "iters", "n", "passes", "cs", "duration"}, extra...)
}

// Figures lists the evaluation's tables and figures in paper order, then
// the MAC comparison and "all" (every table and figure; the MAC comparison
// is not part of it).
var Figures = []Figure{
	{Name: "table4", Run: func(o Options) { Table4(o) }},
	{"fig7", figureSets(), fig7Points, func(o Options) { Fig7(o) }},
	{"fig8", figureSets(), fig8Points, func(o Options) { Fig8(o) }},
	{"fig9", figureSets(), fig9Points, func(o Options) { Fig9(o) }},
	{"fig10", figureSets(), fig10Points, func(o Options) { Fig10(o) }},
	{"table5", figureSets(), fig10Points, func(o Options) { Table5(o, nil) }},
	{"fig11", figureSets("variant"), fig11Points, func(o Options) { Fig11(o) }},
	{"macs", figureSets("mac"), macPoints, func(o Options) { MACSweep(o) }},
	{"all", figureSets("variant"), allPoints, All},
}

// allPoints lists the points All runs, figure by figure (Table 5 reuses
// Figure 10's).
func allPoints(o Options) []PointSpec {
	var pts []PointSpec
	for _, f := range [](func(Options) []PointSpec){fig7Points, fig8Points, fig9Points, fig10Points, fig11Points} {
		pts = append(pts, f(o)...)
	}
	return pts
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

// fig7Points lists Figure 7's points: TightLoop on every configuration at
// each core count.
func fig7Points(o Options) []PointSpec {
	coreCounts := []int{16, 32, 64, 128, 256}
	iters := 25
	if o.Quick {
		coreCounts = []int{16, 64, 128}
		iters = 10
	}
	var pts []PointSpec
	for _, n := range coreCounts {
		for _, k := range config.Kinds {
			p := o.point("tightloop", k, n)
			p.Iters = iters
			pts = append(pts, p)
		}
	}
	return pts
}

// Fig7 reproduces Figure 7: TightLoop cycles/iteration on all four
// configurations across core counts.
func Fig7(o Options) []Fig7Row {
	res := o.simulate(fig7Points(o))
	rows := make([]Fig7Row, len(res))
	for i, r := range res {
		rows[i] = Fig7Row{Cores: r.Spec.Cores, Kind: r.Spec.Kind, CyclesPerIter: r.Kernel.CyclesPerIteration()}
	}
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

// fig8Points lists Figure 8's points: Livermore loops 2, 3 and 6 on every
// configuration across vector lengths, per core count.
func fig8Points(o Options) []PointSpec {
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
	var pts []PointSpec
	for _, cores := range coreCounts {
		for _, loop := range []int{2, 3, 6} {
			lens, workload := lens23, fmt.Sprintf("livermore%d", loop)
			if loop == 6 {
				lens = lens6
			}
			for _, n := range lens {
				for _, k := range config.Kinds {
					p := o.point(workload, k, cores)
					p.N = n
					if loop != 6 {
						p.Passes = passes
					}
					pts = append(pts, p)
				}
			}
		}
	}
	return pts
}

// Fig8 reproduces Figure 8: Livermore loops 2, 3 and 6 execution time
// versus vector length at 64 and 128 cores.
func Fig8(o Options) []Fig8Row {
	res := o.simulate(fig8Points(o))
	rows := make([]Fig8Row, len(res))
	for i, r := range res {
		loop, _ := strconv.Atoi(strings.TrimPrefix(r.Spec.Workload, "livermore"))
		rows[i] = Fig8Row{Loop: loop, Cores: r.Spec.Cores, Length: r.Spec.N, Kind: r.Spec.Kind, Cycles: r.Kernel.Cycles}
	}
	// One table per (cores, loop), one line per vector length.
	for i := 0; i < len(rows); {
		first := rows[i]
		tb := stats.NewTable(
			fmt.Sprintf("Figure 8: Livermore loop %d, %d cores (cycles)", first.Loop, first.Cores),
			"length", "Baseline", "Baseline+", "WiSyncNoT", "WiSync")
		for ; i < len(rows) && rows[i].Loop == first.Loop && rows[i].Cores == first.Cores; i += len(config.Kinds) {
			vals := make(map[config.Kind]sim.Time, 4)
			for _, r := range rows[i : i+len(config.Kinds)] {
				vals[r.Kind] = r.Cycles
			}
			tb.AddRow(rows[i].Length, vals[config.Baseline], vals[config.BaselinePlus],
				vals[config.WiSyncNoT], vals[config.WiSync])
		}
		fmt.Fprintln(o.out(), tb)
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

// fig9Kinds are the configurations Figure 9 compares.
var fig9Kinds = []config.Kind{config.Baseline, config.WiSync}

// fig9Points lists Figure 9's points: the FIFO, LIFO and ADD kernels on
// Baseline and WiSync across critical-section sizes, per core count.
func fig9Points(o Options) []PointSpec {
	sizes := []int{65536, 16384, 4096, 1024, 256, 64, 16, 4}
	coreCounts := []int{64, 128}
	duration := uint64(300000)
	if o.Quick {
		sizes = []int{16384, 1024, 16}
		coreCounts = []int{64}
		duration = 60000
	}
	var pts []PointSpec
	for _, cores := range coreCounts {
		for _, kernel := range []string{"cas-fifo", "cas-lifo", "cas-add"} {
			for _, cs := range sizes {
				for _, k := range fig9Kinds {
					p := o.point(kernel, k, cores)
					p.CS, p.Duration = cs, duration
					pts = append(pts, p)
				}
			}
		}
	}
	return pts
}

// Fig9 reproduces Figure 9: successful-CAS throughput of the FIFO, LIFO
// and ADD kernels versus critical-section size, Baseline versus WiSync, at
// 64 and 128 cores.
func Fig9(o Options) []Fig9Row {
	res := o.simulate(fig9Points(o))
	rows := make([]Fig9Row, len(res))
	for i, r := range res {
		rows[i] = Fig9Row{Kernel: casKinds[r.Spec.Workload], Cores: r.Spec.Cores, CSInstr: r.Spec.CS, Kind: r.Spec.Kind, Per1000: r.CAS.Per1000}
	}
	// One table per (kernel, cores), one line per critical-section size.
	for i := 0; i < len(rows); {
		first := rows[i]
		tb := stats.NewTable(
			fmt.Sprintf("Figure 9: %v CAS throughput per 1000 cycles, %d cores", first.Kernel, first.Cores),
			"cs instr", "Baseline", "WiSync")
		for ; i < len(rows) && rows[i].Kernel == first.Kernel && rows[i].Cores == first.Cores; i += len(fig9Kinds) {
			vals := make(map[config.Kind]float64, 2)
			for _, r := range rows[i : i+len(fig9Kinds)] {
				vals[r.Kind] = r.Per1000
			}
			tb.AddRow(rows[i].CSInstr, f2(vals[config.Baseline]), f2(vals[config.WiSync]))
		}
		fmt.Fprintln(o.out(), tb)
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
	if !o.Verbose && o.Point.Channel == channel.Ideal {
		return
	}
	fmt.Fprintf(o.out(), "# energy %s: %s\n", what, e)
}

// appKinds is the per-application run order of Fig10 and Fig11: the
// Baseline run first (the speedup denominator), then the three compared
// configurations.
var appKinds = [4]config.Kind{config.Baseline, config.BaselinePlus, config.WiSyncNoT, config.WiSync}

// appPoints lists an application sweep's points at 64 cores: each profile
// on the four configurations in appKinds order. Quick runs trim the suite
// to names, at iters iterations each.
func appPoints(o Options, names []string, iters int) []PointSpec {
	if !o.Quick {
		names, iters = names[:0:0], 0
		for _, p := range apps.Profiles() {
			names = append(names, p.Name)
		}
	}
	var pts []PointSpec
	for _, name := range names {
		for _, k := range appKinds {
			p := o.point("app:"+name, k, 64)
			p.Iters = iters
			pts = append(pts, p)
		}
	}
	return pts
}

// fig10Points lists Figure 10's (and Table 5's) points.
func fig10Points(o Options) []PointSpec {
	return appPoints(o, []string{"blackscholes", "streamcluster", "dedup",
		"ocean-c", "radiosity", "raytrace", "water-ns", "fft"}, 4)
}

// Fig10 reproduces Figure 10 (speedups over Baseline on the PARSEC and
// SPLASH-2 suites at 64 cores) and collects the Table 5 utilizations from
// the same runs.
func Fig10(o Options) []AppRow {
	results := o.simulate(fig10Points(o))
	var rows []AppRow
	tb := stats.NewTable("Figure 10: speedup over Baseline, 64 cores",
		"app", "Baseline+", "WiSyncNoT", "WiSync")
	var bp, wnt, w []float64
	for pi := 0; pi < len(results); pi += len(appKinds) {
		baseline := results[pi].App
		row := AppRow{Name: strings.TrimPrefix(results[pi].Spec.Workload, "app:"), Speedup: map[config.Kind]float64{config.Baseline: 1}}
		row.Sched.Add(baseline.Sched)
		row.Energy.Add(baseline.Energy)
		for ki, k := range appKinds[1:] {
			r := results[pi+1+ki].App
			row.Speedup[k] = float64(baseline.Cycles) / float64(r.Cycles)
			row.Sched.Add(r.Sched)
			row.Energy.Add(r.Energy)
			switch k {
			case config.WiSyncNoT:
				row.UtilWNoT = r.DataUtilPct()
			case config.WiSync:
				row.UtilW = r.DataUtilPct()
			}
		}
		rows = append(rows, row)
		bp = append(bp, row.Speedup[config.BaselinePlus])
		wnt = append(wnt, row.Speedup[config.WiSyncNoT])
		w = append(w, row.Speedup[config.WiSync])
		tb.AddRow(row.Name, f2(row.Speedup[config.BaselinePlus]),
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

// fig11Points lists Figure 11's points: a trimmed application sweep under
// each Table 6 variant.
func fig11Points(o Options) []PointSpec {
	var pts []PointSpec
	for _, v := range config.Variants {
		for _, p := range appPoints(o, []string{"streamcluster", "ocean-c", "radiosity", "fft", "blackscholes"}, 3) {
			p.Variant = v
			pts = append(pts, p)
		}
	}
	return pts
}

// Fig11 reproduces Figure 11: geometric-mean application speedups over
// Baseline under the Table 6 memory and network variants, 64 cores.
func Fig11(o Options) []Fig11Row {
	results := o.simulate(fig11Points(o))
	perVariant := len(results) / len(config.Variants)
	var rows []Fig11Row
	tb := stats.NewTable("Figure 11: geomean speedup over Baseline by variant, 64 cores",
		"variant", "Baseline+", "WiSyncNoT", "WiSync")
	for vi, v := range config.Variants {
		acc := map[config.Kind][]float64{}
		for pi := vi * perVariant; pi < (vi+1)*perVariant; pi += len(appKinds) {
			base := results[pi].App
			for ki, k := range appKinds[1:] {
				r := results[pi+1+ki].App
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
		sched.Add(r.App.Sched)
		energy.Add(r.App.Energy)
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
