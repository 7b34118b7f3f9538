package syncprims

import (
	"errors"

	"wisync/internal/bmem"
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/tone"
)

// Factory builds primitives appropriate for a machine's configuration
// (Table 2). Allocation happens at setup time and consumes no simulated
// cycles; programs that allocate dynamically can use the core ISA directly.
type Factory struct {
	m   *core.Machine
	pid uint16
	// Spills counts variables that fell back to cached memory because
	// the BM was full (Section 4.2; exercised by dedup/fluidanimate).
	Spills int
	// steps are the recycled operation steps of the factory's locks and
	// barriers: one per core for each primitive kind (task.go).
	steps steps
}

// NewFactory returns a factory for PID 1, the single-program case.
func NewFactory(m *core.Machine) *Factory { return &Factory{m: m, pid: 1} }

// NewFactoryPID returns a factory allocating under the given PID.
func NewFactoryPID(m *core.Machine, pid uint16) *Factory {
	return &Factory{m: m, pid: pid}
}

// Machine returns the machine this factory allocates on.
func (f *Factory) Machine() *core.Machine { return f.m }

// NewTaskVar allocates a shared synchronization variable with the given
// initial value. On WiSync machines it lives in Broadcast Memory,
// transparently spilling to cached memory when the BM is full.
func (f *Factory) NewTaskVar(init uint64) TaskVar {
	if f.m.Cfg.Kind.HasBM() {
		if addr, err := f.m.BM.AllocBare(f.pid, false); err == nil {
			f.m.BM.Poke(addr, init)
			return &bmVar{addr: addr}
		} else if !errors.Is(err, bmem.ErrFull) {
			panic(err)
		}
		f.Spills++
	}
	v := &cacheVar{addr: f.m.AllocLine()}
	f.m.Mem.Poke(v.addr, init)
	return v
}

// NewTaskLock allocates a lock: CAS spinlock (Baseline), MCS (Baseline+),
// or a wireless test&set lock in BM (WiSync, spilling to a cache CAS lock
// when the BM is full).
func (f *Factory) NewTaskLock() TaskLock {
	switch f.m.Cfg.Kind {
	case config.BaselinePlus:
		return newMCSLock(f)
	default:
		return &spinLock{f: f, v: f.NewTaskVar(0)}
	}
}

// NewTaskBarrier allocates a barrier for the given participant cores:
// centralized (Baseline), tournament (Baseline+), Data-channel fetch&inc
// (WiSyncNoT), or Tone-channel (WiSync, falling back to the Data channel if
// the tone tables are full). Participants must be known up front for tone
// barriers (Section 4.4); pass nil for "all cores".
func (f *Factory) NewTaskBarrier(participants []int) TaskBarrier {
	if participants == nil {
		participants = make([]int, f.m.Cfg.Cores)
		for i := range participants {
			participants[i] = i
		}
	}
	n := len(participants)
	switch f.m.Cfg.Kind {
	case config.Baseline:
		return newCentralBarrier(f, n)
	case config.BaselinePlus:
		return newTournamentBarrier(f, n)
	case config.WiSync:
		addr, err := f.m.Tone.AllocateBare(f.pid, participants)
		if err == nil {
			b := &toneBarrier{addr: addr, sense: make([]uint64, f.m.Cfg.Cores), f: f}
			for i := range b.sense {
				b.sense[i] = 1
			}
			return b
		}
		if !errors.Is(err, tone.ErrTableFull) && !errors.Is(err, tone.ErrPIDQuota) && !errors.Is(err, bmem.ErrFull) {
			panic(err)
		}
		fallthrough
	case config.WiSyncNoT:
		addr, err := f.m.BM.AllocBare(f.pid, false)
		if err != nil {
			// BM full: even barriers spill to cached memory.
			f.Spills++
			return newCentralBarrier(f, n)
		}
		return &dataBarrier{addr: addr, n: uint64(n), ep: make([]uint64, f.m.Cfg.Cores), f: f}
	}
	panic("syncprims: unknown configuration kind")
}
