package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
	"wisync/internal/sweepcache"
	"wisync/internal/syncprims"
)

// Layer probes: small fixed workloads that drive one layer through its
// public entry points, so a change to that layer shows as ns per operation
// whichever workload the traced run belongs to. Each returns CPU ns per
// operation, on the calling (locked) thread's clock, plus the layer
// counters it read.

// probeSim dispatches no-op events through one sim.Engine: chains that
// reschedule themselves alternately a few cycles ahead (timing wheel) and
// far ahead (heap fallback).
func probeSim(events int) (nsPerEvent float64, heapShare float64) {
	e := sim.NewEngine(1)
	const chains = 64
	left := events
	for c := 0; c < chains; c++ {
		var hop func()
		near := true
		hop = func() {
			if left <= 0 {
				return
			}
			left--
			d := sim.Time(3)
			if !near {
				d = 4096 // beyond the wheel's horizon
			}
			near = !near
			e.Schedule(d, hop)
		}
		e.Schedule(sim.Time(c), hop)
	}
	c0 := threadCPU()
	if err := e.Run(); err != nil {
		panic(fmt.Sprintf("sim probe: %v", err))
	}
	el := threadCPU() - c0
	s := e.SchedStats()
	n := s.WheelEvents + s.HeapEvents
	return float64(el.Nanoseconds()) / float64(n), ratio(float64(s.HeapEvents), float64(n))
}

// storm runs body as one task per core on m, each task repeating op ops
// times, and returns the CPU time of Run.
func storm(m *core.Machine, ops int, op func(t *core.Task, then func())) time.Duration {
	m.SpawnAllTasks(func(t *core.Task) {
		n := 0
		var step func()
		step = func() {
			if n == ops {
				t.Finish()
				return
			}
			n++
			op(t, step)
		}
		step()
	})
	c0 := threadCPU()
	if err := m.Run(); err != nil {
		panic(fmt.Sprintf("storm on %v: %v", m.Cfg.Kind, err))
	}
	return threadCPU() - c0
}

// probeMem is a 64-core Baseline fetch&add storm on one line: every
// operation is a contended MOESI directory transaction over the mesh.
func probeMem(ops int) (nsPerTxn float64) {
	m := core.NewMachine(config.New(config.Baseline, 64).WithSeed(1))
	addr := m.AllocLine()
	el := storm(m, ops, func(t *core.Task, then func()) {
		t.FetchAdd(addr, 1, func(uint64) { then() })
	})
	return float64(el.Nanoseconds()) / float64(m.Mem.Stats.Transactions)
}

// probeBM is a 64-core WiSyncNoT fetch&add storm on one Broadcast Memory
// word: every operation is a wireless RMW with the AFB retry protocol.
func probeBM(ops int) (nsPerRMW, afbFailRatio float64) {
	m := core.NewMachine(config.New(config.WiSyncNoT, 64).WithSeed(1))
	addr, err := m.BM.AllocBare(1, false)
	if err != nil {
		panic(fmt.Sprintf("bmem probe: %v", err))
	}
	el := storm(m, ops, func(t *core.Task, then func()) {
		t.BMFetchAdd(addr, 1, func(uint64) { then() })
	})
	s := m.BM.Stats
	return float64(el.Nanoseconds()) / float64(s.RMWs), ratio(float64(s.AFBFailures), float64(s.RMWs+s.AFBFailures))
}

// probeTone runs barrier episodes on a 64-core WiSync machine, whose
// factory barrier is the tone-channel barrier.
func probeTone(episodes int) (nsPerBarrier float64) {
	m := core.NewMachine(config.New(config.WiSync, 64).WithSeed(1))
	b := syncprims.NewFactory(m).NewTaskBarrier(nil)
	el := storm(m, episodes, func(t *core.Task, then func()) {
		t.Compute(20)
		b.WaitTask(t, then)
	})
	if c := m.Tone.Stats.Completions; c < uint64(episodes) {
		panic(fmt.Sprintf("tone probe: %d barrier completions for %d episodes", c, episodes))
	}
	return float64(el.Nanoseconds()) / float64(episodes)
}

// probeCacheHit times warm sweepcache lookups: Do on keys already stored.
func probeCacheHit(calls int) (nsPerHit float64) {
	const keys = 1024
	c := sweepcache.New(4 * keys)
	for i := 0; i < keys; i++ {
		row := fmt.Sprintf("point/%d\tcycles=%d", i, i)
		if _, _, err := c.Do(sweepcache.Key{Digest: "probe", Seed: uint64(i)}, func() (string, error) { return row, nil }); err != nil {
			panic(err)
		}
	}
	miss := func() (string, error) { return "", fmt.Errorf("probe key evicted") }
	c0 := threadCPU()
	for i := 0; i < calls; i++ {
		if _, cached, err := c.Do(sweepcache.Key{Digest: "probe", Seed: uint64(i % keys)}, miss); err != nil || !cached {
			panic(fmt.Sprintf("cache probe: cached=%v err=%v", cached, err))
		}
	}
	return float64((threadCPU() - c0).Nanoseconds()) / float64(calls)
}

// allocSample reads the Go runtime's cumulative allocation and CPU
// counters; differences of two samples attribute them to the code between.
type allocSample struct {
	bytes, objects uint64
	gcCPU, allCPU  float64
}

var allocMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readAlloc() allocSample {
	s := make([]metrics.Sample, len(allocMetricNames))
	for i, n := range allocMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return allocSample{
		bytes:   s[0].Value.Uint64(),
		objects: s[1].Value.Uint64(),
		gcCPU:   s[2].Value.Float64(),
		allCPU:  s[3].Value.Float64(),
	}
}

func (a allocSample) sub(b allocSample) allocSample {
	return allocSample{a.bytes - b.bytes, a.objects - b.objects, a.gcCPU - b.gcCPU, a.allCPU - b.allCPU}
}

func (a *allocSample) add(b allocSample) {
	a.bytes += b.bytes
	a.objects += b.objects
	a.gcCPU += b.gcCPU
	a.allCPU += b.allCPU
}
