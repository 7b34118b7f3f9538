package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"wisync/internal/config"
)

func mustGolden(t *testing.T) goldenRows {
	t.Helper()
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shapeOf is a figure point with its seed removed: what must not vary by
// seed. Golden-covered points keep their fixed seeds.
func shapeOf(p benchPoint) string {
	s := p.spec
	if p.golden == "" {
		s.Seed = 0
	}
	return fmt.Sprintf("%+v", s)
}

func TestSweepPassDeterministicAndSeedIndependentShape(t *testing.T) {
	g := mustGolden(t)
	for wl, kinds := range substrates {
		golden, err := goldenPoints(kinds, g)
		if err != nil {
			t.Fatal(err)
		}
		if len(golden) != 24 {
			t.Errorf("%s: %d golden-covered points, want 24", wl, len(golden))
		}
		a := sweepPass(kinds, golden, 7, 3)
		if b := sweepPass(kinds, golden, 7, 3); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed and pass gave different points", wl)
		}
		if got := len(a) - len(golden); got != 46 {
			t.Errorf("%s: %d figure points per pass, want 46", wl, got)
		}
		shapes := func(pts []benchPoint) []string {
			var s []string
			for _, p := range pts {
				s = append(s, shapeOf(p))
			}
			return s
		}
		for _, other := range []struct {
			seed uint64
			pass int
		}{{8, 3}, {7, 4}, {123456, 0}} {
			c := sweepPass(kinds, golden, other.seed, other.pass)
			if !reflect.DeepEqual(shapes(a), shapes(c)) {
				t.Errorf("%s: seed %d pass %d changed the pass's shapes", wl, other.seed, other.pass)
			}
			same := 0
			for i := len(golden); i < len(a); i++ {
				if a[i].spec.Seed == c[i].spec.Seed {
					same++
				}
			}
			if same != 0 {
				t.Errorf("%s: %d figure points kept their seed across seed %d pass %d", wl, same, other.seed, other.pass)
			}
		}
		if err := prepareSpecs(a); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
	}
}

func TestJobStreamDeterministicAndSeedIndependentShape(t *testing.T) {
	type summary struct {
		fresh, repeats int
		templates      []string
	}
	sum := func(seed uint64, passes int) (summary, [][]byte) {
		st := &jobStream{seed: seed}
		var s summary
		var bodies [][]byte
		for p := 0; p < passes; p++ {
			idx, err := st.pass(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, ji := range idx {
				j := st.jobs[ji]
				bodies = append(bodies, j.body)
				if j.repeats >= 0 {
					s.repeats++
					if j.repeats >= ji || st.jobs[j.repeats].repeats != -1 {
						t.Fatalf("job %d repeats %d, which is not an earlier fresh job", ji, j.repeats)
					}
					continue
				}
				s.fresh++
				js := j.spec
				js.Seeds = nil
				s.templates = append(s.templates, js.Workload+js.MAC+js.Channel+strings.Join(js.Kinds, ","))
				if len(j.points) != 4 {
					t.Errorf("fresh job %s expands to %d points, want 4", j.body, len(j.points))
				}
			}
		}
		sort.Strings(s.templates)
		return s, bodies
	}
	a, ab := sum(1, 4)
	_, bb := sum(1, 4)
	if !reflect.DeepEqual(ab, bb) {
		t.Fatal("same seed gave different job streams")
	}
	b, cb := sum(2, 4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("shape counts differ across seeds:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(ab, cb) {
		t.Error("different seeds gave the same job stream")
	}
	if a.fresh != a.repeats || a.fresh != 4*len(serviceTemplates) {
		t.Errorf("%d fresh and %d repeated jobs, want %d each", a.fresh, a.repeats, 4*len(serviceTemplates))
	}
}

func TestTwinJobsKeepShapeWithUnseenSeeds(t *testing.T) {
	st := &jobStream{seed: 9}
	streamSeeds := map[uint64]bool{}
	for p := 0; p < 4; p++ {
		if _, err := st.pass(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range st.jobs {
		streamSeeds[j.spec.Seeds[0]] = true
	}
	twinSeeds := map[uint64]bool{}
	for _, ji := range st.fresh {
		for a := 1; a < serviceRounds; a++ {
			tw, err := st.twin(ji, a)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := st.twin(ji, a)
			if !reflect.DeepEqual(tw, again) {
				t.Fatalf("twin %d/%d is not deterministic", ji, a)
			}
			orig := st.jobs[ji]
			if tw.repeats != -1 || len(tw.points) != len(orig.points) {
				t.Fatalf("twin of %s is %+v", orig.body, tw)
			}
			for i := range tw.points {
				a, b := tw.points[i], orig.points[i]
				a.Seed, b.Seed = 0, 0
				if !reflect.DeepEqual(a, b) {
					t.Errorf("twin point %d of %s changed shape: %+v", i, orig.body, tw.points[i])
				}
			}
			seed := tw.spec.Seeds[0]
			if streamSeeds[seed] || twinSeeds[seed] {
				t.Errorf("twin %d/%d reuses seed %d", ji, a, seed)
			}
			twinSeeds[seed] = true
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0: refused; else p(n+1), what the estimate of 1..n gives
	}{
		{99, 0.9, 0}, {100, 0.9, 90.9}, {200, 0.9, 180.9},
		{19, 0.5, 0}, {20, 0.5, 10.5}, {21, 0.5, 11},
		{0, 0.5, 0}, {1000, 0.99, 990.99}, {999, 0.99, 0},
	} {
		got, err := percentile(xs(tc.n), tc.p)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d samples: got %v, want a refusal", tc.p*100, tc.n, got)
		case tc.want != 0 && (err != nil || math.Abs(got-tc.want) > 0.01*tc.want):
			t.Errorf("p%g of %d samples: got %v, %v; want about %v", tc.p*100, tc.n, got, err, tc.want)
		}
	}
}

func TestPercentileSmoothAcrossShapes(t *testing.T) {
	// Two point shapes with the same sample count: the median falls exactly
	// where one ends and the other begins. A single order statistic picks
	// one side; the estimate sits between them and moves little when one
	// sample crosses over.
	var xs []float64
	for i := 0; i < 60; i++ {
		xs = append(xs, 5.0+0.001*float64(i), 5.8+0.001*float64(i))
	}
	got, err := percentile(xs, 0.5)
	if err != nil || got < 5.3 || got > 5.5 {
		t.Fatalf("median across two shapes = %v, %v; want about 5.4", got, err)
	}
	xs[1] = 4.9 // one sample of the upper shape drops below the lower one
	moved, err := percentile(xs, 0.5)
	if err != nil || math.Abs(moved-got) > 0.08 { // a tenth of the gap
		t.Errorf("one crossing sample moved the median from %v to %v", got, moved)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestCalibrationArithmetic(t *testing.T) {
	ms := func(v ...float64) []float64 {
		for i := range v {
			v[i] /= 1e3
		}
		return v
	}
	if got := calibScale(ms(2, 1, 3)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scale of samples with median 2ms = %v, want 0.5", got)
	}
	p := passTiming{cpu: []float64{0.010, 0.030}, calCPU: ms(0.5, 0.5, 0.5),
		wall: []float64{0.040}, calWall: ms(4, 4, 4)}
	b := p.busy(processCPUClock)
	if len(b) != 2 || math.Abs(b[0]-0.020) > 1e-12 || math.Abs(b[1]-0.060) > 1e-12 {
		t.Errorf("busy(cpu) on a host twice as fast as nominal = %v, want [0.02 0.06]", b)
	}
	if b := p.busy(wallClock); len(b) != 1 || math.Abs(b[0]-0.010) > 1e-12 {
		t.Errorf("busy(wall) on a host four times slower than nominal = %v, want [0.01]", b)
	}
	c := newCalibrator()
	if _, cpu := c.sample(); cpu <= 0 || cpu > time.Second {
		t.Errorf("calibration sample took %v", cpu)
	}
}

func TestSetupCalibratedPerStart(t *testing.T) {
	var s setupTiming
	// Three cold starts; each one's own samples say how fast the host was
	// while it ran, so each is scaled by its own calibration.
	s.add(20*time.Millisecond, 8*time.Millisecond, []float64{0.002, 0.002, 0.004}, []float64{0.0005})
	s.add(10*time.Millisecond, 4*time.Millisecond, []float64{0.001}, []float64{0.001})
	s.add(30*time.Millisecond, 6*time.Millisecond, []float64{0.003}, []float64{0.002})
	rec := &record{Raw: map[string]float64{}, Wall: map[string]float64{}, CPU: map[string]float64{}, Samples: map[string]int{}}
	m := map[string]metric{}
	s.report(m, rec, wallClock)
	if got := m["setup_s"].Value; math.Abs(got-0.010) > 1e-12 {
		t.Errorf("wall setup_s = %v, want 0.010 (every start calibrates to 10 ms)", got)
	}
	if rec.Raw["setup_s"] != 0.020 || rec.CPU["setup_s"] != 0.006 {
		t.Errorf("raw %v, cpu %v; want the uncalibrated medians 0.020 and 0.006", rec.Raw["setup_s"], rec.CPU["setup_s"])
	}
	s.report(m, rec, processCPUClock)
	if got := m["setup_s"].Value; math.Abs(got-0.004) > 1e-12 {
		t.Errorf("CPU setup_s = %v, want the median of 16, 4 and 3 ms", got)
	}
}

func TestWithoutSweepGODEBUG(t *testing.T) {
	env := []string{"A=1", "GODEBUG=" + sweepGODEBUG, "B=2"}
	if got := withoutSweepGODEBUG(env); !reflect.DeepEqual(got, []string{"A=1", "B=2"}) {
		t.Errorf("got %q", got)
	}
	env = []string{"GODEBUG=gctrace=1," + sweepGODEBUG}
	if got := withoutSweepGODEBUG(env); !reflect.DeepEqual(got, []string{"GODEBUG=gctrace=1"}) {
		t.Errorf("got %q", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "point", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "spec", Start: 10e6, End: 40e6},
		{ID: 3, Parent: 1, Name: "run", Start: 50e6, End: 70e6},
		{ID: 4, Parent: 2, Name: "run", Start: 15e6, End: 25e6},
	}
	want := map[string]selfTime{
		"point": {Name: "point", Count: 1, TotalMS: 100, SelfMS: 50},
		"spec":  {Name: "spec", Count: 1, TotalMS: 30, SelfMS: 20},
		"run":   {Name: "run", Count: 2, TotalMS: 30, SelfMS: 30},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d", len(got), len(want))
	}
	for i, st := range got {
		if st != want[st.Name] {
			t.Errorf("%s: got %+v, want %+v", st.Name, st, want[st.Name])
		}
		if i > 0 && got[i-1].SelfMS < st.SelfMS {
			t.Errorf("not sorted by self time: %v", got)
		}
	}
	var tr *tracer // untraced: every call is a no-op
	if id := tr.begin("x", "", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr.end(0)
}

func TestParseRowMatchesGolden(t *testing.T) {
	g := mustGolden(t)
	row := g["tightloop/Baseline/16c/s1"]
	c, err := parseRow(row)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"cycles": 13632, "iters": 8, "cyc/iter": 1704,
		"mem.L1Hits": 950, "mem.L1Misses": 1093, "mem.Transactions": 1093, "mem.Invalidations": 445,
		"net.Messages": 0, "net.LatencySum": 0,
	} {
		if c[k] != want {
			t.Errorf("%s = %v, want %v", k, c[k], want)
		}
	}
	c, err = parseRow(g["tightloop/WiSync/64c/s1"])
	if err != nil {
		t.Fatal(err)
	}
	if c["net.Messages"] != 8 || c["net.Collisions"] != 36 || c["net.LatencySum"] != 117 || c["datautil"] != 0.04380132968322253 {
		t.Errorf("wireless counters misread: %v", c)
	}
	c, err = parseRow("x/WiSync/16c/s1\tcycles=5\tmem={Transactions:2}\tnet={Messages:3}\tenergy=12.5pJ\tretx=4\tdrops=0")
	if err != nil || c["energy"] != 12.5 || c["retx"] != 4 {
		t.Errorf("lossy columns misread: %v %v", c, err)
	}
	var tot exactTotals
	for id, row := range g {
		if err := tot.addRow(row); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if tot.Rows != len(g) || tot.Txns == 0 || tot.Msgs == 0 {
		t.Errorf("totals over the golden matrices: %+v", tot)
	}
	for _, bad := range []string{"id-only", "x\tmem={L1Hits:1", "x\tmem={L1Hits}", "x\tnoequals"} {
		if _, err := parseRow(bad); err == nil {
			t.Errorf("parseRow(%q) accepted a malformed row", bad)
		}
	}
}

func TestGoldenCoveredRowsCheck(t *testing.T) {
	g := mustGolden(t)
	golden, err := goldenPoints([2]config.Kind{config.WiSyncNoT, config.WiSync}, g)
	if err != nil {
		t.Fatal(err)
	}
	var kernel, app *benchPoint
	for i := range golden {
		p := &golden[i]
		if p.spec.Cores != 16 && !strings.HasPrefix(p.spec.Workload, "app:") {
			continue
		}
		if strings.HasPrefix(p.spec.Workload, "app:") && app == nil {
			app = p
		} else if !strings.HasPrefix(p.spec.Workload, "app:") && kernel == nil {
			kernel = p
		}
	}
	for _, p := range []*benchPoint{kernel, app} {
		row, err := p.spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.checkRow(row); err != nil {
			t.Error(err)
		}
		if err := p.checkRow(strings.Replace(row, "cycles=", "cycles=9", 1)); err == nil {
			t.Errorf("%s: a changed row passed the golden check", p.spec.ID())
		}
	}
}
