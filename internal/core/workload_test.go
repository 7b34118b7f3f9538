package core_test

import (
	"runtime"
	"testing"
	"time"

	"wisync/internal/apps"
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/kernels"
)

// sentinel stands for what a point's caller hands its workload: the
// abort hook in its configuration captures it. It is larger than the
// allocator's 16-byte tiny blocks, which share one finalizer-less block
// among small objects.
type sentinel struct{ polls [8]int }

// TestFinishedPointsHoldNoWorkload: kernels, applications and their
// factories keep their steps, primitives and shared state on the machine
// from one point to the next, and still a finished machine holds nothing
// of the point it ran. Three points each hand their workload an object
// through the configuration's abort hook, which the kept state holds
// while the point runs: a completed livermore6 point, whose result vector
// the kept state also holds; an app:dedup point, whose 2,400 locks the
// factory keeps; and a cas-fifo point on WiSyncNoT cut at its horizon with
// requests, contention slots and RMW continuations in flight. The test
// keeps the finished machine reachable and waits for the collector to
// free the objects.
func TestFinishedPointsHoldNoWorkload(t *testing.T) {
	dedup, _ := apps.ByName("dedup")
	dedup.Iterations = 2
	cases := []struct {
		name string
		kind config.Kind
		run  func(cfg config.Config) []float64 // returns a result vector, or nil
	}{
		{"livermore6", config.WiSync, func(cfg config.Config) []float64 {
			_, w := kernels.Livermore6(cfg, 40)
			return w
		}},
		{"app:dedup", config.WiSync, func(cfg config.Config) []float64 {
			apps.Run(cfg, dedup)
			return nil
		}},
		{"cas-fifo cut", config.WiSyncNoT, func(cfg config.Config) []float64 {
			kernels.CASKernel(cfg, kernels.FIFO, 128, 5000)
			return nil
		}},
	}
	for _, c := range cases {
		// The race detector drops a quarter of the values put in a
		// sync.Pool, so a point may leave no pooled machine; it runs
		// again until one does.
		var m *core.Machine
		var freed []chan struct{}
		for try := 0; try < 20 && m == nil; try++ {
			freed = nil
			func() {
				s := new(sentinel)
				done := make(chan struct{})
				runtime.SetFinalizer(s, func(*sentinel) { close(done) })
				freed = append(freed, done)
				cfg := config.New(c.kind, 64)
				cfg.Abort = &config.AbortCheck{F: func() bool { s.polls[0]++; return false }}
				if w := c.run(cfg); w != nil {
					done := make(chan struct{})
					runtime.SetFinalizer(&w[0], func(*float64) { close(done) })
					freed = append(freed, done)
				}
			}()
			m = core.Pooled()
		}
		if m == nil {
			t.Fatalf("%s: no finished machine reached the pool", c.name)
		}
		if !m.KeepsWorkload() {
			t.Fatalf("%s: the finished machine keeps no workload state", c.name)
		}
		for i, done := range freed {
			if !collected(done) {
				t.Errorf("%s: the finished machine still holds the point's object %d", c.name, i)
			}
		}
		runtime.KeepAlive(m)
	}
}

// collected runs the collector until freed is closed, for at most a few
// seconds, and reports whether it was.
func collected(freed chan struct{}) bool {
	for i := 0; i < 300; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}
