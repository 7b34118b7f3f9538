package syncprims

import (
	"fmt"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
)

// The syncprim equivalence tests drive each primitive through a fixed
// workload and assert the simulated outcome — final cycle count, protocol
// counters, and the functional state the primitive protects — equals the
// values recorded from the blocking-thread implementation the continuation
// form replaced.

// lockResult captures everything a lock workload can observe.
type lockResult struct {
	Cycles  uint64
	Counter uint64
	MemHits uint64
	MemMiss uint64
	Txns    uint64
	NetMsgs uint64
}

// runLockTasks hammers a critical section: each task increments an
// unprotected Go counter under the lock; any mutual-exclusion failure shows
// up as a lost update in the simulated interleave.
func runLockTasks(cfg config.Config, rounds int) lockResult {
	m := core.NewMachine(cfg)
	l := NewFactory(m).NewTaskLock()
	var counter uint64
	m.SpawnAllTasks(func(t *core.Task) {
		i := 0
		var loop func()
		loop = func() {
			if i == rounds {
				t.Finish()
				return
			}
			i++
			l.AcquireTask(t, func() {
				counter++
				t.Instr(20)
				l.ReleaseTask(t, loop)
			})
		}
		loop()
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	r := lockResult{
		Cycles:  uint64(m.Now()),
		Counter: counter,
		MemHits: m.Mem.Stats.L1Hits,
		MemMiss: m.Mem.Stats.L1Misses,
		Txns:    m.Mem.Stats.Transactions,
	}
	if m.Net != nil {
		r.NetMsgs = m.Net.Stats.Messages
	}
	return r
}

// TestLockTaskEquivalence covers the spinLock (Baseline: CAS/backoff over
// cached memory; WiSync: wireless test&set) and the Baseline+ MCS queue
// lock, 8 cores, 4 rounds each.
func TestLockTaskEquivalence(t *testing.T) {
	for _, c := range []struct {
		kind config.Kind
		seed uint64
		want lockResult
	}{
		{config.Baseline, 1, lockResult{Cycles: 3510, Counter: 32, MemHits: 32, MemMiss: 269, Txns: 269}},
		{config.Baseline, 42, lockResult{Cycles: 3510, Counter: 32, MemHits: 32, MemMiss: 269, Txns: 269}},
		{config.BaselinePlus, 1, lockResult{Cycles: 3270, Counter: 32, MemHits: 34, MemMiss: 220, Txns: 220}},
		{config.BaselinePlus, 42, lockResult{Cycles: 3270, Counter: 32, MemHits: 34, MemMiss: 220, Txns: 220}},
		{config.WiSyncNoT, 1, lockResult{Cycles: 840, Counter: 32, NetMsgs: 64}},
		{config.WiSyncNoT, 42, lockResult{Cycles: 810, Counter: 32, NetMsgs: 64}},
		{config.WiSync, 1, lockResult{Cycles: 840, Counter: 32, NetMsgs: 64}},
		{config.WiSync, 42, lockResult{Cycles: 810, Counter: 32, NetMsgs: 64}},
	} {
		got := runLockTasks(config.New(c.kind, 8).WithSeed(c.seed), 4)
		if got != c.want {
			t.Errorf("%v seed %d: lock run diverged from the recorded reference\n got: %+v\nwant: %+v",
				c.kind, c.seed, got, c.want)
		}
	}
}

// TestBarrierTaskEquivalence drives each barrier implementation directly
// (not through a kernel), 16 cores, 5 episodes: per-episode phase counters
// must observe full synchronization, and the run must finish at the
// recorded cycle with the recorded protocol counters.
func TestBarrierTaskEquivalence(t *testing.T) {
	const episodes = 5
	run := func(cfg config.Config) (uint64, string) {
		m := core.NewMachine(cfg)
		tb := NewFactory(m).NewTaskBarrier(nil)
		phase := make([]int, m.Cfg.Cores)
		check := func(core int) {
			phase[core]++
			for c, p := range phase {
				if p < phase[core]-1 || p > phase[core]+1 {
					panic(fmt.Sprintf("core %d at phase %d while core %d at %d", core, phase[core], c, p))
				}
			}
		}
		m.SpawnAllTasks(func(t *core.Task) {
			n := 0
			var loop func()
			loop = func() {
				if n == episodes {
					t.Finish()
					return
				}
				n++
				t.Instr(10 * (1 + t.Core%3))
				tb.WaitTask(t, func() { check(t.Core); loop() })
			}
			loop()
		})
		if err := m.Run(); err != nil {
			panic(err)
		}
		net := ""
		if m.Net != nil {
			net = fmt.Sprintf("%+v/%+v", m.Net.Stats, m.Net.MACCounters())
		}
		return uint64(m.Now()), fmt.Sprintf("mem=%+v net=%s", m.Mem.Stats, net)
	}
	const (
		noMem = "mem={L1Hits:0 L1Misses:0 Transactions:0 Invalidations:0 Forwards:0 MemFetches:0 Evictions:0}"
		noMAC = "TokenPasses:0 TokenWaitCycles:0 ModeSwitches:0 TokenRegens:0}"
	)
	for _, c := range []struct {
		kind     config.Kind
		seed     uint64
		cycles   uint64
		counters string
	}{
		{config.Baseline, 1, 8141, "mem={L1Hits:93 L1Misses:673 Transactions:673 Invalidations:299 Forwards:81 MemFetches:2 Evictions:0} net="},
		{config.Baseline, 42, 8141, "mem={L1Hits:93 L1Misses:673 Transactions:673 Invalidations:299 Forwards:81 MemFetches:2 Evictions:0} net="},
		{config.BaselinePlus, 1, 2329, "mem={L1Hits:120 L1Misses:325 Transactions:325 Invalidations:145 Forwards:150 MemFetches:30 Evictions:0} net="},
		{config.BaselinePlus, 42, 2329, "mem={L1Hits:120 L1Misses:325 Transactions:325 Invalidations:145 Forwards:150 MemFetches:30 Evictions:0} net="},
		{config.WiSyncNoT, 1, 516, noMem + " net={Messages:85 Collisions:20 Withdrawn:0 SkippedGrants:0 BusyCycles:465 LatencySum:3636}/{Grants:85 Collisions:20 " + noMAC},
		{config.WiSyncNoT, 42, 558, noMem + " net={Messages:85 Collisions:39 Withdrawn:0 SkippedGrants:0 BusyCycles:503 LatencySum:4240}/{Grants:85 Collisions:39 " + noMAC},
		{config.WiSync, 1, 128, noMem + " net={Messages:5 Collisions:16 Withdrawn:65 SkippedGrants:0 BusyCycles:57 LatencySum:45}/{Grants:5 Collisions:16 " + noMAC},
		{config.WiSync, 42, 150, noMem + " net={Messages:5 Collisions:27 Withdrawn:70 SkippedGrants:0 BusyCycles:79 LatencySum:68}/{Grants:5 Collisions:27 " + noMAC},
	} {
		cycles, counters := run(config.New(c.kind, 16).WithSeed(c.seed))
		if cycles != c.cycles || counters != c.counters {
			t.Errorf("%v seed %d barrier run diverged from the recorded reference:\n got: cyc=%d %s\nwant: cyc=%d %s",
				c.kind, c.seed, cycles, counters, c.cycles, c.counters)
		}
	}
}
