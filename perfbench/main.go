// Command perfbench is the repository's benchmark: it replays the paper's
// evaluation shapes on the wired and the wireless substrate, and drives the
// sweep service, timing everything against an interleaved host-calibration
// loop. See README.md in this directory for the workloads, the metrics and
// how to read them; run it through run.sh, which builds it and the
// service binaries from the checkout first:
//
//	bash perfbench/run.sh --workload sweep-wired --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1). The line before it is the run's full
// record: host, raw and calibrated timings, calibration quartiles, exact
// simulated totals and a SHA-256 over the checked rows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final line of output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts operations and failures. Any failure makes the run
// incorrect; the first few are kept for the record.
type checker struct {
	attempted, failed int
	notes             []string
}

func (c *checker) attempt(n int) { c.attempted += n }

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// calibRecord summarizes the calibration samples of a run, in ms, by the
// clock each was read with.
type calibRecord struct {
	Wall clockRecord  `json:"wall"`
	CPU  *clockRecord `json:"thread_cpu,omitempty"`
}

type clockRecord struct {
	Samples  int     `json:"samples"`
	Q1MS     float64 `json:"q1_ms"`
	MedianMS float64 `json:"median_ms"`
	Q3MS     float64 `json:"q3_ms"`
	// Scale is calibNominal ÷ median: calibrated = raw × scale.
	Scale float64 `json:"scale"`
}

func summarizeClock(samples []float64) clockRecord {
	q1, q2, q3 := quartiles(samples)
	return clockRecord{Samples: len(samples), Q1MS: q1 * 1e3, MedianMS: q2 * 1e3, Q3MS: q3 * 1e3,
		Scale: calibScale(samples)}
}

// summarizeCalib records the calibration samples of all passes.
func summarizeCalib(passes []passTiming) calibRecord {
	var wall, cpu []float64
	for _, p := range passes {
		wall = append(wall, p.calWall...)
		cpu = append(cpu, p.calCPU...)
	}
	r := calibRecord{Wall: summarizeClock(wall)}
	if len(cpu) > 0 {
		c := summarizeClock(cpu)
		r.CPU = &c
	}
	return r
}

// record is everything a run measured, printed on the line before the
// outcome so any reported number can be traced to its raw value and host.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  int         `json:"seconds"`
	Trace    bool        `json:"trace"`
	Host     hostRecord  `json:"host"`
	Calib    calibRecord `json:"calibration"`
	// Clock names the clock the timings were read from. Raw holds each
	// calibrated timing before calibration, on that clock and in the same
	// unit; Wall and CPU hold the same figure read by wall clock and by CPU
	// time, so a gain can be checked in raw time on either.
	Clock clock              `json:"clock"`
	Raw   map[string]float64 `json:"raw"`
	Wall  map[string]float64 `json:"wall"`
	CPU   map[string]float64 `json:"cpu"`
	// Samples holds the sample count behind each reported value.
	Samples map[string]int `json:"samples"`
	// Stolen counts the service jobs and cold starts whose window the
	// host's steal counter moved.
	Stolen   int         `json:"stolen,omitempty"`
	Passes   int         `json:"passes"`
	Exact    exactTotals `json:"exact"`
	RowsHash string      `json:"rows_sha256"`
	// SelfTime and SpanFile are set by traced runs.
	SelfTime []selfTime `json:"self_time,omitempty"`
	SpanFile string     `json:"span_file,omitempty"`
	Failures []string   `json:"failures,omitempty"`
}

// runOpts are the benchmark's arguments.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: golden matrices live under it
	bin      string // directory holding wisync-server (and its worker)
	out      string // directory for span files and server logs
}

// minPasses is the least number of passes a run makes whatever its time
// budget, so every percentile has its ten samples beyond it and the exact
// totals always cover the same rows.
const minPasses = 5

func main() {
	var o runOpts
	var seconds, trace int
	child := flag.String("child", "", "internal: run as a sweep set-up (setup) or footprint (memory) child")
	flag.StringVar(&o.workload, "workload", "", "sweep-wired, sweep-wireless or service")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 20, "how long the timed window lasts")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics instead")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory with the built wisync-server")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for span files and server logs")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	if *child != "" {
		if err := runChild(*child, o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if isSweep(o.workload) {
		if err := ensureSweepGODEBUG(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: seconds, Trace: o.trace,
		Host: readHost(), Raw: map[string]float64{}, Wall: map[string]float64{}, CPU: map[string]float64{},
		Samples: map[string]int{}}
	steal0 := stealTicks()
	var ck checker
	var m map[string]metric
	var err error
	switch {
	case o.workload == "service":
		m, err = runService(o, rec, &ck)
	case isSweep(o.workload):
		m, err = runSweep(o, rec, &ck)
	default:
		err = fmt.Errorf("unknown workload %q (want sweep-wired, sweep-wireless or service)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		// A run whose operations failed may leave a population too thin
		// for its percentiles; it still reports, as incorrect. Any other
		// error means the benchmark itself could not run.
		if ck.failed == 0 || m == nil {
			os.Exit(1)
		}
		ck.notes = append(ck.notes, err.Error())
	}
	if s1 := stealTicks(); steal0 >= 0 && s1 >= 0 {
		rec.Host.StealTicks = s1 - steal0
	}
	rec.Failures = ck.notes
	emit(rec)
	emit(outcome{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// spanPath names the traced run's span file.
func spanPath(o runOpts) string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}

func isSweep(workload string) bool {
	_, ok := substrates[workload]
	return ok
}
