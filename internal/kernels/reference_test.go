package kernels

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/mem"
	"wisync/internal/wireless"
)

// The reference file pins every field of every kernel's result — the
// headline metric and every mem/net/MAC/energy protocol counter — over the
// kernel matrix. It was recorded from the blocking-thread execution of the
// kernels, which the continuation form replaced; the two agreed on every
// field. The ...ExecEquivalence tests below each compare one kernel family
// with it, so a family's test still proves the task execution equals the
// thread execution, now against the recorded thread side. Regenerate only
// after an INTENDED behaviour change:
//
//	go test ./internal/kernels -run TestKernelsMatchReference -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/reference.tsv from the current simulator")

const referencePath = "testdata/reference.tsv"

// The row types render a result through types without String methods, so
// %+v prints every field rather than a one-line summary.
type (
	energyRow wireless.EnergyStats
	faultRow  core.Fault
)

func faultRows(fs []core.Fault) []faultRow {
	rows := make([]faultRow, len(fs))
	for i, f := range fs {
		rows[i] = faultRow(f)
	}
	return rows
}

func resultRow(r Result) string {
	type row struct {
		Cycles          uint64
		Iterations      int
		DataChannelUtil float64
		Mem             mem.Stats
		Net             wireless.Stats
		MAC             wireless.MACStats
		Energy          energyRow
		Faults          []faultRow
	}
	return fmt.Sprintf("%+v", row{uint64(r.Cycles), r.Iterations, r.DataChannelUtil,
		r.Mem, r.Net, r.MAC, energyRow(r.Energy), faultRows(r.Faults)})
}

// casRow renders a CAS result. Its Duration column is the outcome's
// Cycles: RunUntil ends every CAS run at its cut.
func casRow(r CASResult) string {
	type row struct {
		Duration  uint64
		Successes uint64
		Failures  uint64
		Per1000   float64
		Mem       mem.Stats
		Net       wireless.Stats
		MAC       wireless.MACStats
		Energy    energyRow
		Faults    []faultRow
	}
	return fmt.Sprintf("%+v", row{uint64(r.Cycles), r.Successes, r.Failures, r.Per1000,
		r.Mem, r.Net, r.MAC, energyRow(r.Energy), faultRows(r.Faults)})
}

// vectorDigest folds a kernel's functional output into one FNV-64a word
// over the IEEE bits of each element.
func vectorDigest(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// refPoint is one row of the reference matrix: run renders the point's
// result.
type refPoint struct {
	id     string
	kernel string
	cores  int
	run    func() string
}

func pointID(name string, cfg config.Config) string {
	return fmt.Sprintf("%s/%v/%dc/seed%d", name, cfg.Kind, cfg.Cores, cfg.Seed)
}

// referencePoints is the matrix: every kernel on all four kinds, seeds 1
// and 42, at 16 cores, plus 64-core spot checks where contention storms and
// MAC arbitration differ qualitatively.
func referencePoints() []refPoint {
	var pts []refPoint
	add := func(name string, cfg config.Config, run func(config.Config) string) {
		pts = append(pts, refPoint{pointID(name, cfg), name, cfg.Cores, func() string { return run(cfg) }})
	}
	for _, k := range config.Kinds {
		for _, seed := range []uint64{1, 42} {
			cfg := config.New(k, 16).WithSeed(seed)
			add("tightloop", cfg, func(cfg config.Config) string {
				return resultRow(TightLoop(cfg, 6))
			})
			add("livermore2", cfg, func(cfg config.Config) string {
				r, x := Livermore2(cfg, 48, 1)
				return resultRow(r) + "\tx=" + vectorDigest(x)
			})
			add("livermore3", cfg, func(cfg config.Config) string {
				r, s := Livermore3(cfg, 96, 2)
				return resultRow(r) + fmt.Sprintf("\tq=%v", s)
			})
			add("livermore6", cfg, func(cfg config.Config) string {
				r, w := Livermore6(cfg, 24)
				return resultRow(r) + "\tw=" + vectorDigest(w)
			})
			for _, kind := range []CASKind{FIFO, LIFO, ADD} {
				add("cas-"+kind.String(), cfg, func(cfg config.Config) string {
					return casRow(CASKernel(cfg, kind, 128, 8000))
				})
			}
		}
	}
	for _, k := range []config.Kind{config.Baseline, config.WiSync} {
		cfg := config.New(k, 64)
		add("tightloop", cfg, func(cfg config.Config) string {
			return resultRow(TightLoop(cfg, 8))
		})
		add("cas-FIFO", cfg, func(cfg config.Config) string {
			return casRow(CASKernel(cfg, FIFO, 128, 20000))
		})
	}
	return pts
}

// checkReference runs the matrix points at the given core count whose
// kernel is one of kernels (every kernel when none is named) and asserts
// each row is byte-identical to the recorded reference.
func checkReference(t *testing.T, cores int, kernels ...string) {
	t.Helper()
	want := loadReference(t, referencePath)
	n := 0
	for _, p := range referencePoints() {
		if p.cores != cores || len(kernels) > 0 && !slices.Contains(kernels, p.kernel) {
			continue
		}
		n++
		got := p.run()
		if w, ok := want[p.id]; !ok {
			t.Errorf("%s: not in %s", p.id, referencePath)
		} else if got != w {
			t.Errorf("%s: task and recorded thread execution diverged\n got: %s\nwant: %s", p.id, got, w)
		}
	}
	if n == 0 {
		t.Fatalf("no matrix points at %d cores for %v", cores, kernels)
	}
}

func TestTightLoopExecEquivalence(t *testing.T) { checkReference(t, 16, "tightloop") }

func TestLivermore2ExecEquivalence(t *testing.T) { checkReference(t, 16, "livermore2") }

func TestLivermore3ExecEquivalence(t *testing.T) { checkReference(t, 16, "livermore3") }

func TestLivermore6ExecEquivalence(t *testing.T) { checkReference(t, 16, "livermore6") }

// TestCASKernelExecEquivalence covers all three CAS kinds: the FIFO/LIFO/ADD
// kernels drive the CAS/backoff retry loop — the contended-update path —
// under an open-ended RunUntil horizon.
func TestCASKernelExecEquivalence(t *testing.T) {
	checkReference(t, 16, "cas-FIFO", "cas-LIFO", "cas-ADD")
}

// TestExecEquivalenceLargerPoint checks the 64-core spot checks, where
// contention storms and MAC arbitration are qualitatively different from
// the 16-core matrix. Skipped in -short mode; the 16-core matrix still runs
// there (and under -race).
func TestExecEquivalenceLargerPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core reference points")
	}
	checkReference(t, 64)
}

// TestKernelsMatchReference asserts the reference file holds exactly the
// matrix's rows, in order, so no point goes unchecked and no stale row
// lingers; the tests above compare the rows. With -update-golden it
// rewrites the file from the current simulator instead.
func TestKernelsMatchReference(t *testing.T) {
	pts := referencePoints()
	if *updateGolden {
		var b strings.Builder
		for _, p := range pts {
			b.WriteString(p.id + "\t" + p.run() + "\n")
		}
		if err := os.WriteFile(referencePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ids := make([]string, len(pts))
	for i, p := range pts {
		ids[i] = p.id
	}
	if got, want := referenceIDs(t, referencePath), ids; !slices.Equal(got, want) {
		t.Errorf("%s rows %v\nmatrix points %v", referencePath, got, want)
	}
}

// referenceLines reads a reference file as its lines.
func referenceLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no reference file (generate with -update-golden): %v", err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
}

// loadReference reads a reference file as an id -> row map.
func loadReference(t *testing.T, path string) map[string]string {
	t.Helper()
	want := make(map[string]string)
	for _, line := range referenceLines(t, path) {
		id, row, _ := strings.Cut(line, "\t")
		want[id] = row
	}
	return want
}

// referenceIDs returns a reference file's point ids in file order.
func referenceIDs(t *testing.T, path string) []string {
	t.Helper()
	var ids []string
	for _, line := range referenceLines(t, path) {
		id, _, _ := strings.Cut(line, "\t")
		ids = append(ids, id)
	}
	return ids
}
