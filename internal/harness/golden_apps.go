package harness

import (
	"context"
	"fmt"
	"strings"

	"wisync/internal/config"
)

// AppGoldenPoint is one cell of the full-application conformance matrix: a
// Table 3 profile run on one machine kind at the Figure 10 geometry (64
// cores) with one seed. Like the kernel matrix in golden.go, the committed
// file pins the simulator's observable behavior — cycles, Data-channel
// utilization, BM spills — so interpreter rewrites (the task-form port,
// recycled steps, queue storage) can be proven behavior-preserving by
// re-running the matrix and diffing. The committed golden_apps.tsv was
// generated from the blocking interpreter before the continuation port.
type AppGoldenPoint struct {
	App string
	// Iters overrides the catalog profile's iteration count, trimmed so
	// the matrix stays CI-fast; everything else comes from the catalog.
	Iters int
	Kind  config.Kind
	Seed  uint64
}

// ID names the point; it is the first column of the golden file.
func (pt AppGoldenPoint) ID() string {
	return fmt.Sprintf("%s/%s/64c/s%d", pt.App, pt.Kind, pt.Seed)
}

// AppGoldenPoints enumerates the matrix: three profiles covering the
// interpreter's qualitatively different paths — streamcluster
// (barrier-phase bound with reductions; the headline Figure 10 bar),
// radiosity (serialized hot locks), dedup (a lock array overflowing the BM,
// exercising the spill path) — across all four machine kinds and two seeds.
func AppGoldenPoints() []AppGoldenPoint {
	var pts []AppGoldenPoint
	for _, ap := range []struct {
		name  string
		iters int
	}{{"streamcluster", 3}, {"radiosity", 3}, {"dedup", 2}} {
		for _, k := range config.Kinds {
			for _, seed := range []uint64{1, 42} {
				pts = append(pts, AppGoldenPoint{App: ap.name, Iters: ap.iters, Kind: k, Seed: seed})
			}
		}
	}
	return pts
}

// AppGoldenRun executes one point through PointSpec and renders its
// metrics line.
func AppGoldenRun(pt AppGoldenPoint) string {
	r, err := PointSpec{Workload: "app:" + pt.App, Kind: pt.Kind, Cores: 64, Seed: pt.Seed,
		Iters: pt.Iters}.Simulate(context.Background())
	if err != nil {
		panic(err)
	}
	return pt.ID() + "\t" + strings.Join([]string{
		fmt.Sprintf("cycles=%d", r.App.Cycles),
		fmt.Sprintf("datautil=%s", gf(r.App.DataUtilPct())),
		fmt.Sprintf("spills=%d", r.App.Spills),
	}, "\t")
}

// AppGoldenTable runs every point across the worker pool and returns the
// full golden file contents, bit-identical at every worker count. points
// selects a subset (nil means all).
func AppGoldenTable(o Options, points []AppGoldenPoint) string {
	if points == nil {
		points = AppGoldenPoints()
	}
	lines := make([]string, len(points))
	o.forEach(len(points), func(i int) { lines[i] = AppGoldenRun(points[i]) })
	return strings.Join(lines, "\n") + "\n"
}
