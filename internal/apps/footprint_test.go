package apps

import (
	"runtime"
	"testing"

	"wisync/internal/config"
)

// TestDedupBaselinePlusFootprint pins the heap a lock-heavy point
// allocates. dedup's 2,400 MCS locks on Baseline+ own two queue-node lines
// per core each, so the directory's line store dominates the point's
// allocations; its pages must stay pointer-free and small (see
// internal/mem/store.go). Pages of 128 pointer-holding entries allocated
// 55 MB at 64 cores and 207 MB at 256. The test reads the process-wide
// allocation counter, so it must not run in parallel with other tests.
func TestDedupBaselinePlusFootprint(t *testing.T) {
	p, _ := ByName("dedup")
	for _, c := range []struct {
		cores int
		maxMB float64
	}{{64, 24}, {256, 80}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(config.New(config.BaselinePlus, c.cores), p)
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		t.Logf("dedup, Baseline+, %d cores: %.1f MB allocated", c.cores, mb)
		if mb >= c.maxMB {
			t.Errorf("dedup on Baseline+ at %d cores allocated %.1f MB, want under %.0f MB", c.cores, mb, c.maxMB)
		}
	}
}
