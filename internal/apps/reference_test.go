package apps

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/mem"
	"wisync/internal/wireless"
)

// The reference file pins every simulated field of the profile
// interpreter's result — cycles, utilization, spills and every
// mem/net/MAC/energy protocol counter — over profiles that cover every
// interpreter path. It was recorded from the blocking-thread interpreter,
// which the continuation form replaced; the two agreed on every field.
// TestRunExecEquivalence and TestRunExecEquivalenceFig10Point compare the
// task interpreter with it, so they still prove the two interpreters agree,
// now against the recorded thread side. Regenerate only after an INTENDED
// behaviour change:
//
//	go test ./internal/apps -run TestAppsMatchReference -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/reference.tsv from the current simulator")

const referencePath = "testdata/reference.tsv"

// resultRow renders every simulated field of r through types without
// String methods, so %+v prints each counter rather than a summary. Sched
// (simulator mechanics) is left out.
func resultRow(r Result) string {
	type energyRow wireless.EnergyStats
	type faultRow core.Fault
	type row struct {
		Cycles      uint64
		DataUtilPct float64
		Spills      int
		Mem         mem.Stats
		Net         wireless.Stats
		MAC         wireless.MACStats
		Energy      energyRow
		Faults      []faultRow
	}
	faults := make([]faultRow, len(r.Faults))
	for i, f := range r.Faults {
		faults[i] = faultRow(f)
	}
	return fmt.Sprintf("%+v", row{uint64(r.Cycles), r.DataUtilPct(), r.Spills,
		r.Mem, r.Net, r.MAC, energyRow(r.Energy), faults})
}

// referenceProfiles picks profiles covering every interpreter path: barrier
// phases with reductions (streamcluster), a serialized hot lock
// (radiosity), a BM-overflowing lock array (dedup — the spill path), mixed
// barrier+locks (water-sp), and a compute-bound app with neither locks nor
// reductions (blackscholes). Iterations are trimmed so the matrix runs
// under -race in the short CI job.
func referenceProfiles() []Profile {
	var ps []Profile
	for _, pick := range []struct {
		name  string
		iters int
	}{
		{"streamcluster", 3},
		{"radiosity", 3},
		{"dedup", 2},
		{"water-sp", 2},
		{"blackscholes", 2},
	} {
		p, ok := ByName(pick.name)
		if !ok {
			panic("unknown profile " + pick.name)
		}
		p.Iterations = pick.iters
		ps = append(ps, p)
	}
	return ps
}

type refPoint struct {
	id  string
	cfg config.Config
	p   Profile
}

// referencePoints is the matrix: five profiles on all four kinds, seeds 1
// and 42, at 16 cores, plus Figure 10 spot checks at 64 cores, where
// barrier storms and MAC arbitration differ qualitatively.
func referencePoints() []refPoint {
	var pts []refPoint
	add := func(cfg config.Config, p Profile) {
		id := fmt.Sprintf("%s/%v/%dc/seed%d", p.Name, cfg.Kind, cfg.Cores, cfg.Seed)
		pts = append(pts, refPoint{id, cfg, p})
	}
	for _, p := range referenceProfiles() {
		for _, kind := range config.Kinds {
			for _, seed := range []uint64{1, 42} {
				add(config.New(kind, 16).WithSeed(seed), p)
			}
		}
	}
	for _, name := range []string{"streamcluster", "radiosity"} {
		p, _ := ByName(name)
		p.Iterations = 3
		for _, kind := range []config.Kind{config.Baseline, config.WiSyncNoT, config.WiSync} {
			add(config.New(kind, 64), p)
		}
	}
	return pts
}

// checkReference runs the matrix points at the given core count and
// asserts each row is byte-identical to the recorded reference.
func checkReference(t *testing.T, cores int) {
	t.Helper()
	want := make(map[string]string)
	for _, line := range referenceLines(t) {
		id, row, _ := strings.Cut(line, "\t")
		want[id] = row
	}
	n := 0
	for _, pt := range referencePoints() {
		if pt.cfg.Cores != cores {
			continue
		}
		n++
		got := resultRow(Run(pt.cfg, pt.p))
		if w, ok := want[pt.id]; !ok {
			t.Errorf("%s: not in %s", pt.id, referencePath)
		} else if got != w {
			t.Errorf("%s: task and recorded thread interpreter diverged\n got: %s\nwant: %s", pt.id, got, w)
		}
	}
	if n == 0 {
		t.Fatalf("no matrix points at %d cores", cores)
	}
}

func TestRunExecEquivalence(t *testing.T) { checkReference(t, 16) }

// TestRunExecEquivalenceFig10Point checks the Figure 10 geometry (64
// cores), where barrier storms and MAC arbitration are qualitatively
// different from the 16-core matrix. Skipped in -short mode.
func TestRunExecEquivalenceFig10Point(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core reference points")
	}
	checkReference(t, 64)
}

// TestAppsMatchReference asserts the reference file holds exactly the
// matrix's rows, in order, so no point goes unchecked and no stale row
// lingers; the tests above compare the rows. With -update-golden it
// rewrites the file from the current simulator instead.
func TestAppsMatchReference(t *testing.T) {
	pts := referencePoints()
	if *updateGolden {
		var b strings.Builder
		for _, pt := range pts {
			b.WriteString(pt.id + "\t" + resultRow(Run(pt.cfg, pt.p)) + "\n")
		}
		if err := os.WriteFile(referencePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var got, want []string
	for _, line := range referenceLines(t) {
		id, _, _ := strings.Cut(line, "\t")
		got = append(got, id)
	}
	for _, pt := range pts {
		want = append(want, pt.id)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s rows %v\nmatrix points %v", referencePath, got, want)
	}
}

// referenceLines reads the reference file as its lines.
func referenceLines(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(referencePath)
	if err != nil {
		t.Fatalf("no reference file (generate with -update-golden): %v", err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
}
