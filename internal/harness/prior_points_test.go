package harness

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/fault"
	"wisync/internal/wireless"
)

const priorPointsPath = "testdata/prior_points.tsv"

// priorPoint is one point of TestRowsIndependentOfPriorPoints: a label
// that names its row in testdata/prior_points.tsv (IDs do not name the
// MAC or channel, so they are not unique here), and whether the -short
// subset runs it.
type priorPoint struct {
	name  string
	short bool
	spec  PointSpec
}

// largestPriorPoint allocates the most of the list (about 2.6 MB, mostly
// directory line entries), so it leaves the most storage behind.
const largestPriorPoint = "dedup-baseline+-64"

// priorPoints covers every machine kind at 16 and 256 cores, the
// line-heavy Baseline+ dedup app, both lossy channels, both non-default
// MACs and a fault plan, at seeds the golden matrices do not use. Every
// point carries a budget and a watchdog, so a point that never ends comes
// back as an error row instead of hanging the test.
func priorPoints(short bool) []priorPoint {
	all := []priorPoint{
		{"tightloop-baseline-16", true, PointSpec{Workload: "tightloop", Kind: config.Baseline, Cores: 16, Seed: 7}},
		{"tightloop-baseline+-16", false, PointSpec{Workload: "tightloop", Kind: config.BaselinePlus, Cores: 16, Seed: 7}},
		{"tightloop-wisyncnot-16", true, PointSpec{Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 16, Seed: 7}},
		{"tightloop-wisync-16", true, PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 7}},
		{"tightloop-wisync-256", false, PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 256, Seed: 11}},
		{"cas-fifo-baseline-256", false, PointSpec{Workload: "cas-fifo", Kind: config.Baseline, Cores: 256, Seed: 11}},
		{"cas-fifo-baseline+-256", false, PointSpec{Workload: "cas-fifo", Kind: config.BaselinePlus, Cores: 256, Seed: 11}},
		{"cas-fifo-wisyncnot-256", true, PointSpec{Workload: "cas-fifo", Kind: config.WiSyncNoT, Cores: 256, Seed: 11}},
		{"cas-fifo-wisync-256", false, PointSpec{Workload: "cas-fifo", Kind: config.WiSync, Cores: 256, Seed: 11}},
		{"livermore2-wisyncnot-256", false, PointSpec{Workload: "livermore2", Kind: config.WiSyncNoT, Cores: 256, Seed: 13}},
		{"dedup-baseline+-64", true, PointSpec{Workload: "app:dedup", Kind: config.BaselinePlus, Cores: 64, Seed: 13}},
		{"uniform-wisync-64", true, PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 17,
			Channel: channel.Uniform}},
		{"burst-wisync-64", false, PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 19,
			Channel: channel.Burst}},
		{"token-wisyncnot-64", true, PointSpec{Workload: "cas-add", Kind: config.WiSyncNoT, Cores: 64, Seed: 23,
			MAC: wireless.MACToken}},
		{"adaptive-wisyncnot-64", false, PointSpec{Workload: "cas-fifo", Kind: config.WiSyncNoT, Cores: 64, Seed: 29,
			MAC: wireless.MACAdaptive}},
		{"faults-wisyncnot-64", true, PointSpec{Workload: "cas-fifo", Kind: config.WiSyncNoT, Cores: 64, Seed: 31,
			Faults: &fault.Plan{Outages: []fault.Outage{{Node: 3, At: 400, For: 800}, {Node: 9, At: 1500}}}}},
	}
	var pts []priorPoint
	for _, p := range all {
		if short && !p.short {
			continue
		}
		p.spec.Budget, p.spec.Watchdog = 50_000_000, 2_000_000
		pts = append(pts, p)
	}
	return pts
}

// priorLine renders one point's outcome as its prior_points.tsv line.
func priorLine(p priorPoint, row string, err error) string {
	if err != nil {
		return p.name + "\terror: " + err.Error()
	}
	return p.name + "\t" + row
}

// TestRowsIndependentOfPriorPoints: a point's row does not depend on which
// points ran before it in the same process, or on when the collector ran.
// Machines hand their storage on to the next machine built in the process
// (core.Machine.Finish), so this runs one point list in several orders —
// forward, reversed, each point right after the largest one, with and
// without a collection between points, and on two harness workers — and
// demands the same rows every time, equal to testdata/prior_points.tsv.
// The golden matrices pin 16- and 64-core points at seeds 1 and 42 only;
// this file pins 256-core points and fresh seeds. Rewrite it after an
// intended change with
//
//	go test ./internal/harness -run TestRowsIndependentOfPriorPoints -update-golden
func TestRowsIndependentOfPriorPoints(t *testing.T) {
	pts := priorPoints(testing.Short() && !*updateGolden)
	runOne := func(p priorPoint) string {
		row, err := p.spec.Run()
		return priorLine(p, row, err)
	}
	run := func(order []int, gc bool) []string {
		out := make([]string, len(pts))
		for _, i := range order {
			out[i] = runOne(pts[i])
			if gc {
				runtime.GC()
			}
		}
		return out
	}
	forward := make([]int, len(pts))
	reversed := make([]int, len(pts))
	for i := range pts {
		forward[i] = i
		reversed[len(pts)-1-i] = i
	}
	want := run(forward, false)

	if *updateGolden {
		if err := os.WriteFile(priorPointsPath, []byte(strings.Join(want, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(priorPointsPath)
	if err != nil {
		t.Fatalf("no recorded rows (generate with -update-golden): %v", err)
	}
	recorded := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		name, _, _ := strings.Cut(line, "\t")
		recorded[name] = line
	}
	for i, p := range pts {
		if rec, ok := recorded[p.name]; !ok {
			t.Errorf("%s: not in %s (regenerate with -update-golden)", p.name, priorPointsPath)
		} else if want[i] != rec {
			t.Errorf("%s differs from %s\n got: %s\nwant: %s", p.name, priorPointsPath, want[i], rec)
		}
	}

	check := func(arrangement string, got []string) {
		t.Helper()
		for i := range pts {
			if got[i] != want[i] {
				t.Errorf("%s: %s\n got: %s\nwant: %s", arrangement, pts[i].name, got[i], want[i])
			}
		}
	}
	check("reversed", run(reversed, false))
	check("forward with GC between points", run(forward, true))
	check("reversed with GC between points", run(reversed, true))

	var largest priorPoint
	for _, p := range pts {
		if p.name == largestPriorPoint {
			largest = p
		}
	}
	after := make([]string, len(pts))
	for i := range pts {
		runOne(largest)
		after[i] = runOne(pts[i])
	}
	check("after the largest point", after)

	specs := make([]PointSpec, len(pts))
	for i, p := range pts {
		specs[i] = p.spec
	}
	par := make([]string, len(pts))
	for i, o := range RunPoints(Options{Workers: 2}, specs) {
		par[i] = priorLine(pts[i], o.Row, o.Err)
	}
	check("two workers", par)
}
