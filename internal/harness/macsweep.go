package harness

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/stats"
	"wisync/internal/wireless"
)

// MACRow is one (kernel, core count, protocol) point of the MAC
// comparison sweep.
type MACRow struct {
	Kernel string
	Cores  int
	MAC    wireless.MACKind
	// CyclesPerIter is the tightloop metric, Per1000 the cas-fifo one;
	// the other is zero.
	CyclesPerIter float64
	Per1000       float64
	Util          float64 // Data-channel utilization
	Net           wireless.Stats
	MACStats      wireless.MACStats
}

// macSweepKernels and macSweepMACs define the comparison grid.
var macSweepKernels = []string{"tightloop", "cas-fifo"}

// macPoints lists the MAC comparison's points: each kernel on WiSyncNoT at
// each core count under each protocol.
func macPoints(o Options) []PointSpec {
	coreCounts := []int{16, 64, 256}
	iters := 12
	duration := uint64(60000)
	if o.Quick {
		coreCounts = []int{16, 64}
		iters = 6
		duration = 20000
	}
	var pts []PointSpec
	for _, kernel := range macSweepKernels {
		for _, cores := range coreCounts {
			for _, mac := range wireless.MACKinds {
				p := o.point(kernel, config.WiSyncNoT, cores)
				p.MAC = mac
				if kernel == "tightloop" {
					p.Iters = iters
				} else {
					p.CS, p.Duration = 128, duration
				}
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// MACSweep compares the Data channel's arbitration protocols — the
// paper's carrier-sense backoff, collision-free token passing, and the
// traffic-adaptive switcher — on the two most channel-intensive kernels.
// It runs on WiSyncNoT, where every synchronization operation crosses the
// Data channel (the full design diverts barriers to the Tone channel and
// would mask the MAC): tightloop generates synchronized barrier storms
// (simultaneous arrivals, the random-access worst case), cas-fifo
// generates sustained RMW pressure with jittered arrivals. Reported
// counters show *why* a protocol wins: collision losses for backoff,
// token-rotation waits for token, mode switches for adaptive. The
// template's channel, fault plan, budget and seed apply as in every figure.
func MACSweep(o Options) []MACRow {
	res := o.simulate(macPoints(o))
	rows := make([]MACRow, len(res))
	for i, r := range res {
		out := r.outcome()
		row := MACRow{Kernel: r.Spec.Workload, Cores: r.Spec.Cores, MAC: r.Spec.MAC,
			Util: out.DataChannelUtil, Net: out.Net, MACStats: out.MAC}
		if r.Kernel != nil {
			row.CyclesPerIter = r.Kernel.CyclesPerIteration()
		} else {
			row.Per1000 = r.CAS.Per1000
		}
		rows[i] = row
	}
	// One table per kernel, one line per (cores, protocol).
	for i := 0; i < len(rows); {
		kernel := rows[i].Kernel
		metric := "cyc/iter"
		if kernel == "cas-fifo" {
			metric = "cas/1000cyc"
		}
		tb := stats.NewTable(
			fmt.Sprintf("MAC comparison: %s on WiSyncNoT (%s)", kernel, metric),
			"cores", "mac", metric, "util %", "grants", "collisions", "token waits", "switches")
		for ; i < len(rows) && rows[i].Kernel == kernel; i++ {
			r := rows[i]
			val := f0(r.CyclesPerIter)
			if kernel == "cas-fifo" {
				val = f2(r.Per1000)
			}
			tb.AddRow(r.Cores, r.MAC.String(), val, f2(100*r.Util),
				r.MACStats.Grants, r.MACStats.Collisions,
				r.MACStats.TokenWaitCycles, r.MACStats.ModeSwitches)
		}
		fmt.Fprintln(o.out(), tb)
	}
	return rows
}
