package harness

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/fault"
	"wisync/internal/sim"
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
// A finished machine runs a later point of its core count (core.New), so
// this runs one point list in several orders —
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

// recycleChain lists points that each run on the machine the point before
// it finished, and differ from that point in kind, workload, MAC, channel
// or fault plan; the last three change the core count, both ways. The CAS
// points stop at their horizon with directory transactions (Baseline) or
// Data-channel messages (WiSyncNoT) in flight, and a kernel point follows
// each. The fft point trips its budget, so its machine is never handed
// back and the point after it runs on the machine before.
func recycleChain() []PointSpec {
	plan := &fault.Plan{Outages: []fault.Outage{{Node: 2, At: 300, For: 500}, {Node: 6, At: 900}}}
	return []PointSpec{
		{Workload: "cas-fifo", Kind: config.Baseline, Cores: 16, Seed: 5},
		{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 5},
		{Workload: "cas-lifo", Kind: config.WiSyncNoT, Cores: 16, Seed: 5},
		{Workload: "livermore3", Kind: config.BaselinePlus, Cores: 16, Seed: 5},
		{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 6},
		{Workload: "app:fft", Kind: config.Baseline, Cores: 16, Seed: 1, Iters: 1, Budget: 20000},
		{Workload: "app:dedup", Kind: config.BaselinePlus, Cores: 16, Seed: 5, Iters: 1},
		{Workload: "cas-add", Kind: config.WiSyncNoT, Cores: 16, Seed: 5, MAC: wireless.MACToken},
		{Workload: "livermore6", Kind: config.WiSync, Cores: 16, Seed: 5, Channel: channel.Uniform},
		{Workload: "cas-fifo", Kind: config.WiSyncNoT, Cores: 16, Seed: 5, MAC: wireless.MACAdaptive, Faults: plan},
		{Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 16, Seed: 5, Channel: channel.Burst},
		{Workload: "app:radiosity", Kind: config.WiSync, Cores: 16, Seed: 5, Iters: 1},
		{Workload: "cas-add", Kind: config.WiSync, Cores: 64, Seed: 5},
		{Workload: "livermore2", Kind: config.Baseline, Cores: 16, Seed: 5},
		{Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 64, Seed: 5,
			Faults: &fault.Plan{Outages: []fault.Outage{{Node: 9, At: 700, For: 400}}}},
	}
}

// chainOutcome is what TestRecycledMachinesRunAsNew compares: a point's
// row and scheduling counters, or its error.
type chainOutcome struct {
	row   string
	sched sim.SchedStats
	err   string
}

func runChainPoint(s PointSpec) chainOutcome {
	res, err := s.Simulate(context.Background())
	if err != nil {
		return chainOutcome{err: err.Error()}
	}
	return chainOutcome{row: res.Row(), sched: res.outcome().Sched}
}

// emptyMachinePools lets the collector drop every finished machine:
// sync.Pool keeps what it held before one collection in a victim cache
// until the next.
func emptyMachinePools() {
	runtime.GC()
	runtime.GC()
}

// TestRecycledMachinesRunAsNew: a point on a machine an earlier point
// finished gives the row and the scheduling counters, step-pool counts
// included, of a point on a new machine. It runs each point of
// recycleChain on a new machine, then the chain on recycled ones: in
// order, and on one and two harness workers.
func TestRecycledMachinesRunAsNew(t *testing.T) {
	chain := recycleChain()
	fresh := make([]chainOutcome, len(chain))
	for i, s := range chain {
		emptyMachinePools()
		fresh[i] = runChainPoint(s)
	}
	for i, o := range fresh {
		if tripped := strings.Contains(o.err, "budget"); tripped != (chain[i].Budget > 0) || !tripped && o.err != "" {
			t.Fatalf("%s: %+v", chain[i].ID(), o)
		}
	}
	check := func(arrangement string, got []chainOutcome) {
		t.Helper()
		for i := range chain {
			if got[i] != fresh[i] {
				t.Errorf("%s: %s on a recycled machine\n got: %+v\nwant: %+v", arrangement, chain[i].ID(), got[i], fresh[i])
			}
		}
	}
	emptyMachinePools()
	inOrder := make([]chainOutcome, len(chain))
	for i, s := range chain {
		inOrder[i] = runChainPoint(s)
	}
	check("in order", inOrder)
	for _, workers := range []int{1, 2} {
		got := make([]chainOutcome, len(chain))
		ForEach(workers, len(chain), func(i int) { got[i] = runChainPoint(chain[i]) })
		check(fmt.Sprintf("%d worker(s)", workers), got)
	}
}

// TestResultOwnsItsFaults: a result keeps its fault records and row after
// a later point runs on the machine that produced them.
func TestResultOwnsItsFaults(t *testing.T) {
	first := PointSpec{Workload: "cas-fifo", Kind: config.WiSyncNoT, Cores: 16, Seed: 3,
		Faults: &fault.Plan{Outages: []fault.Outage{{Node: 2, At: 500}, {Node: 5, At: 900}}}}
	res, err := first.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	row, faults := res.Row(), slices.Clone(res.CAS.Faults)
	if len(faults) == 0 {
		t.Fatal("the plan halted no thread; the test does not exercise the fault records")
	}
	second := PointSpec{Workload: "cas-add", Kind: config.WiSyncNoT, Cores: 16, Seed: 4,
		Faults: &fault.Plan{Outages: []fault.Outage{{Node: 1, At: 400}, {Node: 7, At: 600}, {Node: 9, At: 700}}}}
	if _, err := second.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.CAS.Faults, faults) || res.Row() != row {
		t.Errorf("a later point changed the result it did not produce\n got: %v\nwant: %v", res.CAS.Faults, faults)
	}
}
