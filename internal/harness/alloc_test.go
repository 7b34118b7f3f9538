//go:build !race

// The race detector allocates on its own account, so this file's budgets
// hold only without it.

package harness

import (
	"context"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"wisync/internal/config"
)

// Per-point allocation budget of a point run again on a warmed machine:
// its result and the workload's own vectors, nothing that grows with its
// cores, primitives or simulated operations. The bytes leave room for a
// map the point fills again (the engine's task set, the spin lists) to
// grow its table once more: clear keeps a map's storage but draws a new
// hash seed, so the same keys can land in a fuller group.
const (
	pointMallocBudget = 16
	pointByteBudget   = 16 << 10
)

// TestSteadyStatePointsAllocate: a point run on a machine that has run it
// before allocates almost nothing. The machine keeps its layers' storage,
// the records a horizon cut leaves in flight, and the workload layer's
// steps, primitives and shared state, so what is left is the point's
// result and its kernel's data vectors. Every kernel workload and three
// applications (4 iterations) run on all four kinds at 16 and 64 cores:
// once each to warm the machine, then each twice in a row; the second run
// must stay within the budget.
func TestSteadyStatePointsAllocate(t *testing.T) {
	var specs []PointSpec
	for _, w := range []string{"tightloop", "livermore2", "livermore3", "livermore6", "cas-fifo", "cas-lifo", "cas-add",
		"app:dedup", "app:radiosity", "app:streamcluster"} {
		for _, k := range config.Kinds {
			for _, cores := range []int{16, 64} {
				s := PointSpec{Workload: w, Kind: k, Cores: cores, Seed: 1}
				if strings.HasPrefix(w, "app:") {
					s.Iters = 4
				}
				specs = append(specs, s)
			}
		}
	}
	// Every run takes the one machine the run before it finished: with one
	// P the pool hands back the machine it was given last, and the
	// collector, which would empty the pool, is off.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, s := range specs {
		if _, err := s.Simulate(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var worst struct{ mallocs, bytes uint64 }
	for _, s := range specs {
		if _, err := s.Simulate(context.Background()); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := s.Simulate(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		worst.mallocs, worst.bytes = max(worst.mallocs, mallocs), max(worst.bytes, bytes)
		if mallocs > pointMallocBudget || bytes > pointByteBudget {
			t.Errorf("%s run again allocated %d objects and %d bytes, budget %d and %d",
				s.ID(), mallocs, bytes, pointMallocBudget, pointByteBudget)
		}
	}
	t.Logf("%d points; worst second run: %d objects, %d bytes", len(specs), worst.mallocs, worst.bytes)
}
