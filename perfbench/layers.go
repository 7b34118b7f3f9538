package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"wisync/internal/core"
)

// layerData collects what a traced run measured per layer; layerMetrics
// turns it into the per-layer metrics. Fields of layers a workload does not
// pass through stay zero, and so do their metrics.
type layerData struct {
	specNS    float64 // spec path (Normalize+Validate+Digest) spans
	specCount int
	buildNS   float64 // CPU time of the core.New spans
	buildKB   float64
	builds    int
	alloc     allocSample // allocation over PointSpec.Run spans; GC CPU over traced passes
	allocRuns int
	runNS     float64     // CPU time inside PointSpec.Run spans
	runRows   exactTotals // counters of the rows those spans produced
	appNS     float64     // CPU time inside apps.Run spans

	simProbeNS, memProbeNS, bmProbeNS, afbFail, toneProbeNS, cacheHitNS float64
	overheadShare                                                       float64

	// Service-only layers.
	cacheHitRatio           float64
	restarts, crashes       float64
	rejected, errorRows     float64
	roundtripUS, firstRowMS float64
}

// layerProbes runs the per-layer probes and the per-point-config spans over
// pts (the first pass of the workload): one core.New per distinct
// machine configuration, and apps.Run on every application point for the
// scheduler counters. Everything here is outside the timed passes.
func layerProbes(tr *tracer, ld *layerData, exact *exactTotals, pts []benchPoint) error {
	seen := map[string]bool{}
	for _, p := range pts {
		n, err := p.spec.Normalize()
		if err != nil {
			return err
		}
		d, err := n.Config().Digest()
		if err != nil {
			return err
		}
		if !seen[d] {
			seen[d] = true
			cfg := n.Config()
			a0 := readAlloc()
			t0, c0 := time.Now(), threadCPU()
			if _, err := core.New(cfg); err != nil {
				return fmt.Errorf("building %s: %w", n.ID(), err)
			}
			ld.buildNS += float64((threadCPU() - c0).Nanoseconds())
			tr.add("core.New", n.ID(), 0, t0, time.Now())
			ld.buildKB += float64(readAlloc().sub(a0).bytes) / 1024
			ld.builds++
		}
		if strings.HasPrefix(n.Workload, "app:") {
			t0, c0 := time.Now(), threadCPU()
			r, err := appRun(n)
			if err != nil {
				return err
			}
			ld.appNS += float64((threadCPU() - c0).Nanoseconds())
			tr.add("apps.Run", n.ID(), 0, t0, time.Now())
			exact.SimWheel += float64(r.Sched.WheelEvents)
			exact.SimHeap += float64(r.Sched.HeapEvents)
			exact.StepPoolHits += float64(r.Sched.StepPoolHits)
			exact.StepPoolMiss += float64(r.Sched.StepPoolMisses)
		}
	}
	probe := func(name string, f func()) {
		t0 := time.Now()
		f()
		tr.add(name, "", 0, t0, time.Now())
	}
	probe("probe.sim", func() { ld.simProbeNS, _ = probeSim(400_000) })
	probe("probe.mem", func() { ld.memProbeNS = probeMem(40) })
	probe("probe.bmem", func() { ld.bmProbeNS, ld.afbFail = probeBM(40) })
	probe("probe.tone", func() { ld.toneProbeNS = probeTone(200) })
	probe("probe.sweepcache", func() { ld.cacheHitNS = probeCacheHit(200_000) })
	return nil
}

// layerMetrics renders the per-layer metrics of a traced run. Exact counts
// come from the first passes' rows (exact); host-time ratios from the
// traced spans (ld).
func layerMetrics(ld *layerData, exact exactTotals) map[string]metric {
	events := exact.SimWheel + exact.SimHeap
	m := map[string]metric{
		"harness.spec_us":      {ratio(ld.specNS, float64(ld.specCount)) / 1e3, "us"},
		"core.build_ms":        {ratio(ld.buildNS, float64(ld.builds)) / 1e6, "ms"},
		"core.build_kb":        {ratio(ld.buildKB, float64(ld.builds)), "KB"},
		"alloc.kb_per_point":   {ratio(float64(ld.alloc.bytes)/1024, float64(ld.allocRuns)), "KB"},
		"alloc.objs_per_point": {ratio(float64(ld.alloc.objects), float64(ld.allocRuns)), "count"},
		"gc.cpu_share":         {ratio(ld.alloc.gcCPU, ld.alloc.allCPU), "ratio"},

		"sim.events":             {events, "count"},
		"sim.heap_share":         {ratio(exact.SimHeap, events), "ratio"},
		"sim.ns_per_event":       {ratio(ld.appNS, events), "ns"},
		"sim.probe_ns_per_event": {ld.simProbeNS, "ns"},
		"apps.step_reuse":        {ratio(exact.StepPoolHits, exact.StepPoolHits+exact.StepPoolMiss), "ratio"},

		"mem.txns":             {exact.Txns, "count"},
		"mem.l1_hit_ratio":     {ratio(exact.L1Hits, exact.L1Hits+exact.L1Misses), "ratio"},
		"mem.inval_per_txn":    {ratio(exact.Invalidations, exact.Txns), "ratio"},
		"mem.ns_per_txn":       {ratio(ld.runNS, ld.runRows.Txns), "ns"},
		"mem.probe_ns_per_txn": {ld.memProbeNS, "ns"},

		"wireless.msgs":               {exact.Msgs, "count"},
		"wireless.collisions_per_msg": {ratio(exact.Collisions, exact.Msgs), "ratio"},
		"wireless.skipped_per_msg":    {ratio(exact.Skipped, exact.Msgs), "ratio"},
		"wireless.latency_cyc":        {ratio(exact.LatencySum, exact.Msgs), "cycles"},
		"channel.retx":                {exact.Retx, "count"},
		"wireless.ns_per_msg":         {ratio(ld.runNS, ld.runRows.Msgs), "ns"},

		"bmem.probe_ns_per_rmw":     {ld.bmProbeNS, "ns"},
		"bmem.afb_fail_ratio":       {ld.afbFail, "ratio"},
		"tone.probe_ns_per_barrier": {ld.toneProbeNS, "ns"},

		"sweepcache.hit_ratio": {ld.cacheHitRatio, "ratio"},
		"sweepcache.hit_ns":    {ld.cacheHitNS, "ns"},

		"workerpool.roundtrip_us": {ld.roundtripUS, "us"},
		"workerpool.restarts":     {ld.restarts, "count"},
		"workerpool.crashes":      {ld.crashes, "count"},

		"server.first_row_ms": {ld.firstRowMS, "ms"},
		"server.rejected_429": {ld.rejected, "count"},
		"server.error_rows":   {ld.errorRows, "count"},

		"trace.overhead_share": {ld.overheadShare, "ratio"},
	}
	return m
}

// finishTrace runs the probes after the timed passes, sums the spec spans,
// and writes the span file and self-time summary. pts is the workload's
// first pass; c is the clock its passes are timed on.
func finishTrace(o runOpts, rec *record, tr *tracer, ld *layerData, exact *exactTotals, pts []benchPoint, passes []passTiming, c clock) error {
	var untraced, traced []float64
	for _, p := range passes {
		if p.traced {
			traced = append(traced, sum(p.busy(c)))
		} else {
			untraced = append(untraced, sum(p.busy(c)))
		}
	}
	ld.overheadShare = ratio(median(traced)-median(untraced), median(untraced))
	rec.Raw["pass_s_untraced"], rec.Raw["pass_s_traced"] = median(untraced), median(traced)
	for _, s := range tr.spans {
		if s.Name == "spec" {
			ld.specNS += float64(s.End - s.Start)
			ld.specCount++
		}
	}
	if err := layerProbes(tr, ld, exact, pts); err != nil {
		return err
	}
	rec.Exact = *exact
	rec.SelfTime = selfTimes(tr.spans)
	path := spanPath(o)
	if rel, err := filepath.Rel(o.root, path); err == nil {
		rec.SpanFile = rel // relative to the checkout, so records do not name a host path
	} else {
		rec.SpanFile = path
	}
	return tr.write(path)
}
