package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wisync/internal/apps"
	"wisync/internal/config"
	"wisync/internal/harness"
)

// substrates maps each sweep workload to the two machine kinds it runs:
// the wired pair, whose synchronization all goes through the MOESI
// directory, and the wireless pair, whose synchronization rides the Data
// channel, the Broadcast Memory and (on WiSync) the tone channel.
var substrates = map[string][2]config.Kind{
	"sweep-wired":    {config.Baseline, config.BaselinePlus},
	"sweep-wireless": {config.WiSyncNoT, config.WiSync},
}

// figureShape is one workload at the core counts the pass runs it on.
type figureShape struct {
	workload string
	cores    []int
	iters    int // 0: the workload's default
}

// figureShapes are the paper's Section 7 evaluation shapes (Figs 7–10),
// trimmed so a pass takes seconds: 23 shapes, 46 points on two kinds.
var figureShapes = func() []figureShape {
	s := []figureShape{
		{workload: "tightloop", cores: []int{64, 128, 256}}, // Fig 7
		{workload: "livermore2", cores: []int{64, 256}},     // Fig 8
		{workload: "livermore3", cores: []int{64, 256}},
		{workload: "cas-fifo", cores: []int{64, 256}}, // Fig 9
		{workload: "cas-lifo", cores: []int{64, 256}},
		{workload: "cas-add", cores: []int{64, 256}},
		{workload: "livermore6", cores: []int{64, 128}}, // Fig 8
	}
	// The quick Figure 10 application set, four iterations each, as
	// harness.Fig10 runs it.
	for _, app := range []string{"blackscholes", "streamcluster", "dedup",
		"ocean-c", "radiosity", "raytrace", "water-ns", "fft"} {
		s = append(s, figureShape{workload: "app:" + app, cores: []int{64}, iters: 4})
	}
	return s
}()

// benchPoint is one point of a pass. Golden is the row the committed
// golden matrices hold for it, in their format; it is set exactly for the
// golden-covered points, whose seeds (1 and 42) repeat every pass.
type benchPoint struct {
	spec   harness.PointSpec
	golden string
}

// repeat reports whether the point's inputs repeat verbatim every pass
// (the golden-covered points) rather than being fresh to this pass.
func (p benchPoint) repeat() bool { return p.golden != "" }

// goldenRows indexes both committed golden matrices by point ID.
type goldenRows map[string]string

func loadGolden(root string) (goldenRows, error) {
	g := goldenRows{}
	for _, name := range []string{"golden.tsv", "golden_apps.tsv"} {
		f, err := os.Open(filepath.Join(root, "internal", "harness", "testdata", name))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			if id, _, ok := strings.Cut(sc.Text(), "\t"); ok {
				g[id] = sc.Text()
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", name, err)
		}
	}
	return g, nil
}

// goldenForm renders a PointSpec.Run row in the golden matrices' format.
// Kernel rows already are; application rows carry an "app:" prefix and
// extra counter columns the application matrix does not pin.
func goldenForm(row string) string {
	if !strings.HasPrefix(row, "app:") {
		return row
	}
	cols := strings.Split(strings.TrimPrefix(row, "app:"), "\t")
	if len(cols) > 4 {
		cols = cols[:4] // id, cycles, datautil, spills
	}
	return strings.Join(cols, "\t")
}

// checkRow compares a golden-covered point's row with the golden matrix.
func (p benchPoint) checkRow(row string) error {
	if p.golden == "" {
		return nil
	}
	if got := goldenForm(row); got != p.golden {
		return fmt.Errorf("%s: row differs from golden\n got  %s\n want %s", p.spec.ID(), got, p.golden)
	}
	return nil
}

// goldenPoints lists the golden-covered points of the given kinds, kernel
// matrix first, in matrix order.
func goldenPoints(kinds [2]config.Kind, g goldenRows) ([]benchPoint, error) {
	in := func(k config.Kind) bool { return k == kinds[0] || k == kinds[1] }
	var pts []benchPoint
	for _, gp := range harness.GoldenPoints() {
		if in(gp.Kind) {
			pts = append(pts, benchPoint{spec: harness.PointSpec{
				Workload: gp.Kernel, Kind: gp.Kind, Cores: gp.Cores, Seed: gp.Seed}, golden: g[gp.ID()]})
		}
	}
	for _, ap := range harness.AppGoldenPoints() {
		if in(ap.Kind) {
			pts = append(pts, benchPoint{spec: harness.PointSpec{
				Workload: "app:" + ap.App, Kind: ap.Kind, Cores: 64, Seed: ap.Seed, Iters: ap.Iters},
				golden: g[ap.ID()]})
		}
	}
	for _, p := range pts {
		if p.golden == "" {
			return nil, fmt.Errorf("golden matrix has no row for %s", p.spec.ID())
		}
	}
	return pts, nil
}

// freshSeed derives the simulation seed of figure point i in the given
// pass from the workload seed. Seeds start at 1000, clear of the golden
// seeds.
func freshSeed(seed uint64, pass, i int) uint64 {
	return 1000 + splitmix(splitmix(seed)^uint64(pass)<<20^uint64(i))%1_000_000_000
}

// sweepPass lists one pass: the golden-covered points, then the 46 figure
// points with seeds fresh to (workload seed, pass). Every pass has the same
// shapes in the same order; only the figure points' seeds change.
func sweepPass(kinds [2]config.Kind, golden []benchPoint, seed uint64, pass int) []benchPoint {
	pts := append([]benchPoint(nil), golden...)
	i := 0
	for _, sh := range figureShapes {
		for _, cores := range sh.cores {
			for _, k := range kinds {
				pts = append(pts, benchPoint{spec: harness.PointSpec{
					Workload: sh.workload, Kind: k, Cores: cores, Iters: sh.iters,
					Seed: freshSeed(seed, pass, i)}})
				i++
			}
		}
	}
	return pts
}

// prepareSpecs runs every spec of a pass through the harness's spec path —
// normalization, validation, content digest — as a caller must before
// running or caching a point.
func prepareSpecs(pts []benchPoint) error {
	for _, p := range pts {
		n, err := p.spec.Normalize()
		if err != nil {
			return err
		}
		if err := n.Validate(); err != nil {
			return err
		}
		if _, err := n.Digest(); err != nil {
			return err
		}
	}
	return nil
}

// appRun runs an application point through the exec-free apps.Run entry
// point, for its scheduler counters.
func appRun(s harness.PointSpec) (apps.Result, error) {
	n, err := s.Normalize()
	if err != nil {
		return apps.Result{}, err
	}
	p, ok := apps.ByName(strings.TrimPrefix(n.Workload, "app:"))
	if !ok {
		return apps.Result{}, fmt.Errorf("unknown application %q", n.Workload)
	}
	if n.Iters > 0 {
		p.Iterations = n.Iters
	}
	return apps.Run(n.Config(), p), nil
}
