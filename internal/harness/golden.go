package harness

import (
	"fmt"
	"strconv"
	"strings"

	"wisync/internal/config"
	"wisync/internal/kernels"
)

// GoldenPoint is one cell of the conformance matrix: a kernel run on one
// machine kind at one core count with one seed. The matrix pins the
// simulator's observable behavior exactly — every reported metric and every
// internal protocol counter — so that engine rewrites (event scheduling,
// continuation conversion, queue storage) can be proven behavior-preserving
// by re-running the matrix and diffing against the committed golden file.
type GoldenPoint struct {
	Kernel string
	Kind   config.Kind
	Cores  int
	Seed   uint64
}

// ID names the point; it is the first column of the golden file.
func (pt GoldenPoint) ID() string {
	return fmt.Sprintf("%s/%s/%dc/s%d", pt.Kernel, pt.Kind, pt.Cores, pt.Seed)
}

// GoldenPoints enumerates the conformance matrix: the wired baseline and
// the full wireless design (plus the two intermediate machines on the
// barrier kernel) x four kernels x {16, 64} cores, at fixed seeds. The
// kernels were picked to cover every contended protocol path: TightLoop
// drives barrier storms (directory invalidation storms on Baseline, tone /
// Data-channel bursts on WiSync), Livermore 2 mixes barrier phases with
// real array traffic, Livermore 6 adds a serial reduction with ownership
// ping-pong, and the FIFO CAS kernel hammers one line (Baseline) or one
// broadcast variable (WiSync) through the RMW path under an open-ended
// RunUntil horizon.
func GoldenPoints() []GoldenPoint {
	var pts []GoldenPoint
	add := func(kernel string, kinds []config.Kind, seeds ...uint64) {
		for _, k := range kinds {
			for _, cores := range []int{16, 64} {
				for _, seed := range seeds {
					pts = append(pts, GoldenPoint{Kernel: kernel, Kind: k, Cores: cores, Seed: seed})
				}
			}
		}
	}
	both := []config.Kind{config.Baseline, config.WiSync}
	// TightLoop runs on all four machines: it is the kernel where the four
	// synchronization substrates (CAS barrier, tournament barrier over the
	// tree NoC, Data-channel barrier, Tone barrier) diverge the most.
	add("tightloop", config.Kinds, 1)
	// A second seed on the two headline machines guards the seeded
	// randomness plumbing (backoff windows, workload jitter).
	add("tightloop", both, 42)
	add("livermore2", both, 1)
	add("livermore6", both, 1)
	add("cas-fifo", both, 1)
	return pts
}

// GoldenRun executes one point and renders its metrics line: the point ID
// followed by key=value columns, floats formatted exactly (shortest
// round-trip form), counters in full. Two runs of the same simulator build
// produce byte-identical lines; any behavioral divergence moves at least
// one column.
func GoldenRun(pt GoldenPoint) string { return GoldenRunExec(pt, kernels.ExecTask) }

// GoldenRunExec is GoldenRun with an explicit workload execution mode. The
// committed golden file was generated with blocking threads before the
// continuation conversion; both modes must render every line byte-identical
// to it (TestGoldenConformance pins the default, TestGoldenBlockingEquivalence
// the reference mode).
func GoldenRunExec(pt GoldenPoint, exec kernels.Exec) string {
	return mustRunPoint(PointSpec{Workload: pt.Kernel, Kind: pt.Kind, Cores: pt.Cores,
		Seed: pt.Seed, Exec: exec})
}

// mustRunPoint runs a spec whose failure would be a programming error in
// the conformance matrix itself, not a runtime condition. The golden
// kernels execute through the same PointSpec.Run path the sweep service
// uses, so the service's default rows are byte-identical to the committed
// golden matrix by construction.
func mustRunPoint(s PointSpec) string {
	row, err := s.Run()
	if err != nil {
		panic(err)
	}
	return row
}

// goldenLine renders the shared kernels.Result columns plus extras.
func goldenLine(id string, r kernels.Result, extra ...string) string {
	cols := []string{
		fmt.Sprintf("cycles=%d", r.Cycles),
		fmt.Sprintf("iters=%d", r.Iterations),
		fmt.Sprintf("datautil=%s", gf(r.DataChannelUtil)),
	}
	cols = append(cols, extra...)
	cols = append(cols,
		fmt.Sprintf("mem=%+v", r.Mem),
		fmt.Sprintf("net=%+v", r.Net),
	)
	return id + "\t" + strings.Join(cols, "\t")
}

// GoldenTable runs every point across the worker pool and returns the full
// golden file contents. Rows are assembled in matrix order, so the output
// is bit-identical at every worker count. points selects a subset (nil
// means all).
func GoldenTable(o Options, points []GoldenPoint) string {
	if points == nil {
		points = GoldenPoints()
	}
	lines := make([]string, len(points))
	o.forEach(len(points), func(i int) { lines[i] = GoldenRun(points[i]) })
	return strings.Join(lines, "\n") + "\n"
}

// gf formats a float64 in its shortest exact round-trip form.
func gf(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// vecSum condenses a functional-result vector into one exact checksum
// column. The kernels' functional mirrors are deterministic, so this pins
// the computed values, not just the timing.
func vecSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
