package main

import (
	"errors"
	"fmt"
	"time"
)

// clock names the clock a workload's timings are reported on.
type clock string

const (
	// processCPUClock is the measuring process's CPU clock, all threads.
	// The sweeps run their points one at a time with GOMAXPROCS 1, so a
	// point's process CPU time is its wall time less what the host took
	// away, with the collector's work included.
	processCPUClock clock = "process_cpu"
	// wallClock is the wall clock. A service job's latency runs through
	// the client, the server and two worker processes in parallel, and
	// through waits between them, which only the wall clock sees.
	wallClock clock = "wall"
)

// passTiming is one pass of a workload: per timed operation (a sweep point
// or a service job) its wall time and its CPU time, and per calibration
// sample the loop's wall time and thread CPU time. All in seconds. For a
// sweep point the CPU time is the measuring process's; for a service job
// it is the CPU the server and its workers spent between POST and trailer.
type passTiming struct {
	wall, cpu       []float64
	calWall, calCPU []float64
	// hit marks the operations of the hit population: service jobs whose
	// rows all came back cached, and sweep points whose inputs repeat
	// verbatim every pass (the golden-covered points).
	hit    []bool
	rows   int // result rows delivered
	traced bool
}

// busy returns the pass's calibrated time per operation on clock c: each
// operation's time on that clock, scaled by the calibration samples read
// on the same clock.
func (p passTiming) busy(c clock) []float64 {
	t, cal := p.cpu, p.calCPU
	if c == wallClock {
		t, cal = p.wall, p.calWall
	}
	s := calibScale(cal)
	out := make([]float64, len(t))
	for i, d := range t {
		out[i] = d * s
	}
	return out
}

// setupTiming collects cold starts: per start, the wall time to ready and
// the CPU time the started processes spent getting there, each with the
// median of the calibration samples taken for that start on the same
// clock.
type setupTiming struct{ wall, cpu, calWall, calCPU []float64 }

func (s *setupTiming) add(wall, cpu time.Duration, calWall, calCPU []float64) {
	s.wall = append(s.wall, wall.Seconds())
	s.cpu = append(s.cpu, cpu.Seconds())
	s.calWall = append(s.calWall, median(calWall))
	s.calCPU = append(s.calCPU, median(calCPU))
}

// report sets setup_s: the median over cold starts of each start's time on
// clock c, calibrated by that start's own samples.
func (s *setupTiming) report(m map[string]metric, rec *record, c clock) {
	t, cal := s.cpu, s.calCPU
	if c == wallClock {
		t, cal = s.wall, s.calWall
	}
	scaled := make([]float64, len(t))
	for i := range t {
		scaled[i] = t[i] * calibScale(cal[i:i+1])
	}
	m["setup_s"] = metric{median(scaled), "s"}
	rec.Raw["setup_s"] = median(t)
	rec.Wall["setup_s"], rec.CPU["setup_s"] = median(s.wall), median(s.cpu)
	rec.Samples["setup_s"] = len(t)
}

// passMetrics fills the metrics every workload derives from its passes on
// clock c: sweep_s (median calibrated time per pass), points_per_s (rows
// per calibrated second) and the hit/miss latency percentiles, with the
// uncalibrated figures on both clocks beside them in the record.
func passMetrics(m map[string]metric, rec *record, passes []passTiming, c clock) error {
	var passCal, passWall, passCPU []float64
	var rows float64
	var hit, miss [3][]float64 // calibrated, wall, CPU; in ms
	for _, p := range passes {
		b := p.busy(c)
		passCal = append(passCal, sum(b))
		passWall = append(passWall, sum(p.wall))
		passCPU = append(passCPU, sum(p.cpu))
		rows += float64(p.rows)
		for i := range b {
			pop := &miss
			if p.hit[i] {
				pop = &hit
			}
			pop[0] = append(pop[0], b[i]*1e3)
			pop[1] = append(pop[1], p.wall[i]*1e3)
			pop[2] = append(pop[2], p.cpu[i]*1e3)
		}
	}
	pick := func(wall, cpu float64) float64 {
		if c == wallClock {
			return wall
		}
		return cpu
	}
	m["sweep_s"] = metric{median(passCal), "s"}
	rec.Wall["sweep_s"], rec.CPU["sweep_s"] = median(passWall), median(passCPU)
	rec.Raw["sweep_s"] = pick(rec.Wall["sweep_s"], rec.CPU["sweep_s"])
	rec.Samples["sweep_s"] = len(passCal)
	m["points_per_s"] = metric{ratio(rows, sum(passCal)), "1/s"}
	rec.Wall["points_per_s"], rec.CPU["points_per_s"] = ratio(rows, sum(passWall)), ratio(rows, sum(passCPU))
	rec.Raw["points_per_s"] = pick(rec.Wall["points_per_s"], rec.CPU["points_per_s"])
	rec.Samples["points_per_s"] = int(rows)
	errHit := latencyMetrics(m, rec, "hit", hit, c)
	errMiss := latencyMetrics(m, rec, "miss", miss, c)
	return errors.Join(errHit, errMiss)
}

// latencyMetrics fills <name>_p50_ms and <name>_p90_ms from calibrated
// samples (pop[0]), with the same percentiles of the uncalibrated wall
// (pop[1]) and CPU (pop[2]) samples in the record. A percentile the
// samples cannot support is reported as 0 and returned as an error.
func latencyMetrics(m map[string]metric, rec *record, name string, pop [3][]float64, c clock) error {
	var errs []error
	for _, q := range []struct {
		key string
		p   float64
	}{{"_p50_ms", 0.5}, {"_p90_ms", 0.9}} {
		k := name + q.key
		v, err := percentile(pop[0], q.p)
		m[k] = metric{v, "ms"}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", k, err))
			continue
		}
		rec.Wall[k], _ = percentile(pop[1], q.p)
		rec.CPU[k], _ = percentile(pop[2], q.p)
		rec.Raw[k] = rec.CPU[k]
		if c == wallClock {
			rec.Raw[k] = rec.Wall[k]
		}
		rec.Samples[k] = len(pop[0])
	}
	return errors.Join(errs...)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
