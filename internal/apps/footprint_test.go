package apps

import (
	"runtime"
	"testing"

	"wisync/internal/config"
)

// TestDedupBaselinePlusFootprint pins the heap a lock-heavy point
// allocates, in bytes and in objects. dedup creates 2,400 locks.
//   - On Baseline+ each MCS lock owns two queue-node lines per core, so
//     the directory's line store dominates the bytes; its pages must stay
//     pointer-free and small (see internal/mem/store.go). Pages of 128
//     pointer-holding entries allocated 55 MB at 64 cores and 207 MB at
//     256.
//   - On every configuration the objects count what the locks cost the
//     simulator. A lock's queue nodes are computed from its tail address,
//     and its operations run on the factory's one step per core
//     (syncprims/task.go). Per-lock node arrays and per-(lock, core)
//     steps made 46,045 objects on Baseline+, 18,065 on Baseline and
//     19,093 on WiSync at 64 cores.
//
// The test reads the process-wide allocation counters, so it must not run
// in parallel with other tests.
func TestDedupBaselinePlusFootprint(t *testing.T) {
	p, _ := ByName("dedup")
	for _, c := range []struct {
		kind    config.Kind
		cores   int
		maxMB   float64
		maxObjs uint64
	}{
		{config.BaselinePlus, 64, 12, 14000},
		{config.BaselinePlus, 256, 40, 40000},
		{config.Baseline, 64, 2, 10000},
		{config.WiSync, 64, 2, 12000},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(config.New(c.kind, c.cores), p)
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		objs := after.Mallocs - before.Mallocs
		t.Logf("dedup, %v, %d cores: %.1f MB in %d objects", c.kind, c.cores, mb, objs)
		if mb >= c.maxMB || objs >= c.maxObjs {
			t.Errorf("dedup on %v at %d cores allocated %.1f MB in %d objects, want under %.0f MB and %d objects",
				c.kind, c.cores, mb, objs, c.maxMB, c.maxObjs)
		}
	}
}
