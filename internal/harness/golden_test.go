package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regenerate the golden file after an INTENDED behavior change with:
//
//	go test ./internal/harness -run TestGoldenConformance -update-golden
//
// Never regenerate to make an engine refactor pass: the whole point of the
// file is that engine-level rewrites (event scheduling, continuation
// conversion, queue storage) must reproduce these numbers exactly.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden.tsv from the current simulator")

const goldenPath = "testdata/golden.tsv"

// shortPoints returns the 16-core half of the matrix in -short mode, the
// full matrix otherwise — the shared subsetting policy of the golden
// suites.
func shortPoints() []GoldenPoint {
	pts := GoldenPoints()
	if !testing.Short() {
		return pts
	}
	short := pts[:0:0]
	for _, pt := range pts {
		if pt.Cores <= 16 {
			short = append(short, pt)
		}
	}
	return short
}

// loadGolden reads the committed golden file as an id -> line map.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (generate with -update-golden): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		id, _, _ := strings.Cut(line, "\t")
		want[id] = line
	}
	return want
}

// compareToGolden asserts each produced line is byte-identical to the
// committed one.
func compareToGolden(t *testing.T, want map[string]string, lines []string) {
	t.Helper()
	for _, line := range lines {
		id, _, _ := strings.Cut(line, "\t")
		wantLine, ok := want[id]
		if !ok {
			t.Errorf("%s: not in golden file (regenerate with -update-golden)", id)
			continue
		}
		if line != wantLine {
			t.Errorf("%s: diverged from golden\n got: %s\nwant: %s", id, line, wantLine)
		}
	}
}

// TestGoldenConformance re-runs every conformance point and asserts each
// metrics line is byte-identical to the committed golden file. In -short
// mode only the 16-core half of the matrix runs (the full matrix still runs
// in the regular CI test job).
func TestGoldenConformance(t *testing.T) {
	pts := shortPoints()
	if *updateGolden {
		pts = GoldenPoints()
	}
	got := GoldenTable(Options{}, pts)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden points to %s", len(pts), goldenPath)
		return
	}

	want := loadGolden(t)
	compareToGolden(t, want, strings.Split(strings.TrimRight(got, "\n"), "\n"))
	if !testing.Short() && len(want) != len(GoldenPoints()) {
		t.Errorf("golden file has %d points, matrix has %d (regenerate with -update-golden)",
			len(want), len(GoldenPoints()))
	}
}

// TestGoldenTableWorkerInvariant asserts the golden matrix itself is
// bit-identical at every worker count, extending the sweep-pool determinism
// property to the conformance suite.
func TestGoldenTableWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix twice")
	}
	seq := GoldenTable(Options{Workers: 1}, nil)
	par := GoldenTable(Options{Workers: poolWorkers()}, nil)
	if seq != par {
		t.Error("golden table differs between Workers=1 and a full pool")
	}
}
