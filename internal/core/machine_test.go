package core

import (
	"runtime"
	"testing"
	"time"

	"wisync/internal/config"
	"wisync/internal/mem"
	"wisync/internal/sim"
)

// TestNewRejectsInvalidConfig pins the error-returning construction path
// the sweep service uses: a malformed configuration is an error from New,
// while NewMachine keeps its panic contract for static harness code.
func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(config.New(config.WiSync, 64)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := config.New(config.WiSync, 64)
	bad.Cores = 0
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted a zero-core config")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewMachine did not panic on an invalid config")
		}
	}()
	NewMachine(bad)
}

// workload stands for a point's workload state: what the tasks' bodies and
// continuations capture.
type workload struct {
	ops [8]uint64
}

// TestFinishedMachineHoldsNoWorkload: a finished machine, held for a later
// point, keeps nothing of the workload it ran, whether the run completed
// or was cut at its horizon with operations of every layer in flight (BM
// and cached-memory RMWs, cached-memory and BM spinners, a tone barrier
// with a waiter, Data-channel messages). The test keeps the machine
// reachable and waits for the collector to free the workload.
func TestFinishedMachineHoldsNoWorkload(t *testing.T) {
	completed := func(w *workload) *Machine {
		m := newM(t, config.WiSync, 4)
		addr := m.AllocLine()
		m.SpawnAllTasks(func(th *Task) {
			th.FetchAdd(addr, 1, func(v uint64) {
				w.ops[th.Core] = v
				th.Finish()
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	cut := func(w *workload) *Machine {
		m := newM(t, config.WiSync, 8)
		line := m.AllocLine()
		never := m.AllocLine()
		bmAddr, _ := m.BM.AllocBare(1, false)
		bmNever, _ := m.BM.AllocBare(1, false)
		bar, err := m.Tone.AllocateBare(1, []int{6, 7})
		if err != nil {
			t.Fatal(err)
		}
		m.SpawnAllTasks(func(th *Task) {
			var loop func(uint64)
			loop = func(v uint64) {
				w.ops[th.Core] += v
				th.Compute(3)
				switch th.Core {
				case 0, 1:
					th.BMFetchInc(bmAddr, loop)
				case 2, 3:
					th.FetchAdd(line, 1, loop)
				case 4:
					th.SpinUntil(never, sim.Eq(1), loop)
				case 5:
					th.BMSpinUntil(bmNever, sim.Eq(1), loop)
				case 6:
					th.ToneStore(bar, func() { th.ToneWait(bar, 1, func() { loop(0) }) })
				case 7:
					th.Read(line, loop)
				}
			}
			loop(0)
		})
		if err := m.RunUntil(3000); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, run := range map[string]func(*workload) *Machine{"completed": completed, "cut": cut} {
		freed := make(chan struct{})
		m := func() *Machine {
			w := new(workload)
			runtime.SetFinalizer(w, func(*workload) { close(freed) })
			m := run(w)
			m.Finish()
			return m
		}()
		if !collected(freed) {
			t.Errorf("%s: the finished machine still holds its workload", name)
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

// TestLargeLineStoreNotPooled: a machine whose line store outgrew
// maxPooledLineBytes is not held for a later point; a smaller one is.
func TestLargeLineStoreNotPooled(t *testing.T) {
	cfg := config.New(config.Baseline, 4)
	m := NewMachine(cfg)
	lines := maxPooledLineBytes/mem.LineBytes + 1
	base := m.AllocLines(lines)
	for i := 0; i < lines; i++ {
		m.Mem.Poke(base+uint64(i)*mem.LineBytes, 1)
	}
	if got := m.Mem.KeptLineBytes(); got <= maxPooledLineBytes {
		t.Fatalf("%d lines keep %d bytes, not past the %d-byte bound", lines, got, maxPooledLineBytes)
	}
	m.Finish()
	if NewMachine(cfg) == m {
		t.Error("a machine past the line-storage bound was pooled")
	}
	// A small machine is pooled. The race detector drops a quarter of the
	// values put in a sync.Pool, so this tries a few times.
	reused := false
	for i := 0; i < 20 && !reused; i++ {
		small := NewMachine(cfg)
		small.Finish()
		reused = NewMachine(cfg) == small
	}
	if !reused {
		t.Error("a small finished machine was never reused")
	}
}
