package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// coldStarts is how many fresh processes set-up time is the median of,
// and footprintRuns how many the sweeps' peak resident set is.
const (
	coldStarts    = 21
	footprintRuns = 3
)

// runSweep measures one sweep workload: set-up over fresh processes, the
// footprint of one pass in fresh processes at GOGC=10, then passes over
// the point list until the time budget is spent. Points run one at a time
// and are timed by the process's CPU clock, under sweepGODEBUG.
func runSweep(o runOpts, rec *record, ck *checker) (map[string]metric, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	kinds := substrates[o.workload]
	g, err := loadGolden(o.root)
	if err != nil {
		return nil, err
	}
	golden, err := goldenPoints(kinds, g)
	if err != nil {
		return nil, err
	}
	cal := newCalibrator()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}

	// Set-up: process start to the first timed point, in fresh processes.
	var setup setupTiming
	for i := 0; i < coldStarts; i++ {
		d, res, err := spawnChild(self, "setup", o)
		if err != nil {
			return nil, err
		}
		setup.add(d, res.cpu, res.calWall, res.calCPU)
	}

	// Footprint: one pass in a fresh process with a tight GC target, so
	// the peak resident set reads the live data, not the collector's
	// pacing; the median of footprintRuns such processes. Their rows must
	// hash as this process's first pass does.
	var rssMB []float64
	var memHashes []string
	for i := 0; i < footprintRuns; i++ {
		_, mem, err := spawnChild(self, "memory", o)
		if err != nil {
			return nil, err
		}
		rssMB = append(rssMB, mem.rssMB)
		memHashes = append(memHashes, mem.hash)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	first := sweepPass(kinds, golden, o.seed, 0)
	if err := prepareSpecs(first); err != nil {
		return nil, err
	}

	// Points run on one P with the collector on at a fixed GOGC. With one
	// P the collector cannot work beside a point on an idle core: its work
	// takes its share of the point's time, as it does in a sweep that keeps
	// every core busy, and the process CPU clock counts it. That clock
	// leaves out what the host takes away (steal), which wall time counts.
	// Pass 0 is an untimed warm-up, and every pass starts from a heap just
	// collected, outside the timing. Where a point's collections fall then
	// depends only on the points before it in its own pass: the
	// golden-covered points, which open every pass, meet the same
	// collections in every pass of every run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(100))

	h, h0 := sha256.New(), sha256.New()
	var exact exactTotals
	var passes []passTiming
	ld := &layerData{}
	start := time.Now()
	for pass := 0; pass <= minPasses || time.Since(start) < o.seconds; pass++ {
		pts := first
		if pass > 0 {
			pts = sweepPass(kinds, golden, o.seed, pass)
		}
		// Traced runs alternate untraced and traced timed passes, so the
		// tracing overhead is measured within one run.
		pt := passTiming{traced: o.trace && pass > 0 && pass%2 == 0}
		runtime.GC()
		var a0 allocSample
		if pt.traced {
			a0 = readAlloc()
		}
		for _, p := range pts {
			var ptr *tracer
			if pt.traced {
				ptr = tr
			}
			cw, cc := cal.sample()
			row, err := runPoint(ptr, ld, p, &pt)
			ck.attempt(1)
			pt.calWall = append(pt.calWall, cw.Seconds())
			pt.calCPU = append(pt.calCPU, cc.Seconds())
			pt.hit = append(pt.hit, p.repeat())
			if pass == 0 {
				fmt.Fprintln(h0, rowOrError(row, err))
			}
			if err != nil {
				ck.fail("%s: error row: %v", p.spec.ID(), err)
				continue
			}
			pt.rows++
			if err := p.checkRow(row); err != nil {
				ck.fail("%v", err)
			}
			if pass < minPasses {
				fmt.Fprintln(h, row)
				if err := exact.addRow(row); err != nil {
					ck.fail("%v", err)
				}
			}
			if pt.traced {
				if err := ld.runRows.addRow(row); err != nil {
					ck.fail("%v", err)
				}
			}
		}
		if pt.traced {
			// The collector's share is taken over the whole pass, since
			// its background work is not tied to one point.
			d := readAlloc().sub(a0)
			ld.alloc.gcCPU += d.gcCPU
			ld.alloc.allCPU += d.allCPU
		}
		if pass == 0 {
			// The footprint children ran the same first pass; their rows
			// must hash identically.
			got := hex.EncodeToString(h0.Sum(nil))
			for _, mh := range memHashes {
				ck.attempt(1)
				if mh != got {
					ck.fail("footprint child's first pass hashes %s, this process's %s", mh, got)
				}
			}
			continue // the warm-up pass is not timed
		}
		passes = append(passes, pt)
	}
	rec.Clock = processCPUClock
	rec.Passes = len(passes)
	rec.RowsHash = hex.EncodeToString(h.Sum(nil))
	rec.Exact = exact
	rec.Calib = summarizeCalib(passes)

	if o.trace {
		if err := finishTrace(o, rec, tr, ld, &exact, first, passes, processCPUClock); err != nil {
			return nil, err
		}
		return layerMetrics(ld, exact), nil
	}

	m := map[string]metric{}
	setup.report(m, rec, processCPUClock)
	m["peak_rss_mb"] = metric{median(rssMB), "MB"}
	rec.Samples["peak_rss_mb"] = len(rssMB)
	return m, passMetrics(m, rec, passes, processCPUClock)
}

// runPoint runs one point, timing it by wall clock and process CPU into pt.
// With a tracer it records spec → run spans under a point span and the Go
// runtime's allocation deltas over the run.
func runPoint(tr *tracer, ld *layerData, p benchPoint, pt *passTiming) (string, error) {
	item := p.spec.ID()
	t0, c0 := time.Now(), processCPU()
	defer func() {
		pt.cpu = append(pt.cpu, (processCPU() - c0).Seconds())
		pt.wall = append(pt.wall, time.Since(t0).Seconds())
	}()
	if tr == nil {
		return p.spec.Run()
	}
	root := tr.begin("point", item, 0)
	defer tr.end(root)
	sp := tr.begin("spec", item, root)
	err := prepareSpecs([]benchPoint{p})
	tr.end(sp)
	if err != nil {
		return "", err
	}
	a0 := readAlloc()
	run := tr.begin("run", item, root)
	r0 := threadCPU()
	row, err := p.spec.Run()
	ld.runNS += float64((threadCPU() - r0).Nanoseconds())
	tr.end(run)
	d := readAlloc().sub(a0)
	ld.alloc.bytes += d.bytes
	ld.alloc.objects += d.objects
	ld.allocRuns++
	return row, err
}

// childResult is what a sweep child reports: its CPU time at ready, the
// calibration samples it took right after, its peak resident set and the
// hash it printed.
type childResult struct {
	cpu             time.Duration
	calWall, calCPU []float64
	rssMB           float64
	hash            string
}

// childCalSamples is how many calibration samples a set-up child takes
// once it is ready: on the CPU and at the time its set-up ran.
const childCalSamples = 7

// spawnChild runs this binary as a sweep child and returns the wall time
// from exec to its "ready" line, with what the child reported. A set-up
// child runs on one P at GOGC=100 under sweepGODEBUG, as the measuring
// process runs its points; the footprint child runs at GOGC=10 under the
// runtime's defaults otherwise.
func spawnChild(self, mode string, o runOpts) (time.Duration, childResult, error) {
	cmd := exec.Command(self, "-child", mode, "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-root", o.root)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GOGC=100")
	if mode == "memory" {
		cmd.Env = append(withoutSweepGODEBUG(os.Environ()), "GOGC=10")
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, childResult{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, childResult{}, err
	}
	sc := bufio.NewScanner(out)
	var res childResult
	var d time.Duration
	var perr error
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 2 && f[0] == "ready":
			d = time.Since(t0)
			var ns int64
			ns, perr = strconv.ParseInt(f[1], 10, 64)
			res.cpu = time.Duration(ns)
		case len(f) == 3 && f[0] == "cal":
			w, err1 := strconv.ParseInt(f[1], 10, 64)
			c, err2 := strconv.ParseInt(f[2], 10, 64)
			if perr = errors.Join(err1, err2); perr == nil {
				res.calWall = append(res.calWall, time.Duration(w).Seconds())
				res.calCPU = append(res.calCPU, time.Duration(c).Seconds())
			}
		case len(f) == 2 && f[0] == "hash":
			res.hash = f[1]
		}
		if perr != nil {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, res, fmt.Errorf("%s child: %w", mode, err)
	}
	if perr != nil {
		return 0, res, fmt.Errorf("%s child: %w", mode, perr)
	}
	if d == 0 {
		return 0, res, fmt.Errorf("%s child never became ready", mode)
	}
	if mode == "setup" && len(res.calCPU) != childCalSamples {
		return 0, res, fmt.Errorf("setup child sent %d calibration samples, want %d", len(res.calCPU), childCalSamples)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return d, res, nil
}

// runChild is the child side: "setup" builds the first pass's point list,
// runs every spec through the spec path and one warm-up point, says ready
// with its CPU time so far, then takes calibration samples; "memory" runs
// the whole first pass after ready and prints the hash of its rows.
func runChild(mode string, o runOpts) error {
	kinds, ok := substrates[o.workload]
	if !ok {
		return fmt.Errorf("child of non-sweep workload %q", o.workload)
	}
	g, err := loadGolden(o.root)
	if err != nil {
		return err
	}
	golden, err := goldenPoints(kinds, g)
	if err != nil {
		return err
	}
	first := sweepPass(kinds, golden, o.seed, 0)
	if err := prepareSpecs(first); err != nil {
		return err
	}
	if _, err := first[0].spec.Run(); err != nil {
		return err
	}
	fmt.Println("ready", processCPU().Nanoseconds())
	if mode != "memory" {
		runtime.LockOSThread()
		cal := newCalibrator()
		for i := 0; i < childCalSamples; i++ {
			w, c := cal.sample()
			fmt.Println("cal", w.Nanoseconds(), c.Nanoseconds())
		}
		return nil
	}
	h := sha256.New()
	for _, p := range first {
		fmt.Fprintln(h, rowOrError(p.spec.Run()))
	}
	fmt.Println("hash " + hex.EncodeToString(h.Sum(nil)))
	return nil
}

// sweepGODEBUG is the runtime setting the sweeps measure under: the
// collector's scavenger hands memory back to the kernel with MADV_FREE
// instead of Linux's default MADV_DONTNEED, so memory that the next point
// takes again is not faulted back in page by page. On the 2-vCPU Xeon VM
// those faults added about 30% to the heaviest points and moved their
// times by 10% from run to run.
const sweepGODEBUG = "madvdontneed=0"

// ensureSweepGODEBUG re-executes the benchmark with sweepGODEBUG added to
// GODEBUG unless it is there already: the runtime reads GODEBUG once, at
// start-up.
func ensureSweepGODEBUG() error {
	cur := os.Getenv("GODEBUG")
	if slices.Contains(strings.Split(cur, ","), sweepGODEBUG) {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	v := sweepGODEBUG
	if cur != "" {
		v = cur + "," + v
	}
	env := append(withoutSweepGODEBUG(os.Environ()), "GODEBUG="+v)
	return syscall.Exec(self, os.Args, env)
}

// withoutSweepGODEBUG returns env with sweepGODEBUG taken out of GODEBUG.
func withoutSweepGODEBUG(env []string) []string {
	var out []string
	for _, kv := range env {
		if v, ok := strings.CutPrefix(kv, "GODEBUG="); ok {
			var keep []string
			for _, s := range strings.Split(v, ",") {
				if s != sweepGODEBUG && s != "" {
					keep = append(keep, s)
				}
			}
			if len(keep) == 0 {
				continue
			}
			kv = "GODEBUG=" + strings.Join(keep, ",")
		}
		out = append(out, kv)
	}
	return out
}

// rowOrError is what a point contributes to a row hash: its row, or its
// error marked as such.
func rowOrError(row string, err error) string {
	if err != nil {
		return "ERROR " + err.Error()
	}
	return row
}
