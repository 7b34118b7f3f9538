package syncprims

import (
	"errors"

	"wisync/internal/bmem"
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
	"wisync/internal/tone"
)

// Factory builds primitives appropriate for a machine's configuration
// (Table 2). Allocation happens at setup time and consumes no simulated
// cycles; programs that allocate dynamically can use the core ISA directly.
//
// The machine keeps its factories from one point to the next, with their
// steps and primitive objects: a point's i-th factory is the one the
// machine's earlier points made i-th, and it hands out the primitive
// objects it made before, kind by kind in creation order, each rebuilt
// for the new point. A program that builds the same primitives every point
// allocates none after its first (dedup builds 2,400 locks).
type Factory struct {
	m   *core.Machine
	pid uint16
	// Spills counts variables that fell back to cached memory because
	// the BM was full (Section 4.2; exercised by dedup/fluidanimate).
	Spills int
	// steps are the recycled operation steps of the factory's locks and
	// barriers: one per core for each primitive kind (task.go).
	steps steps
	// made holds the primitive objects of every kind, for the next point.
	made made
	// all lists every core, the participants of a barrier for all cores.
	all []int
}

// made is a factory's primitive objects, one list per kind.
type made struct {
	cacheVars  objects[cacheVar]
	bmVars     objects[bmVar]
	spinLocks  objects[spinLock]
	mcsLocks   objects[mcsLock]
	central    objects[centralBarrier]
	tournament objects[tournamentBarrier]
	data       objects[dataBarrier]
	tone       objects[toneBarrier]
	reducers   objects[Reducer]
}

// objects hands out the objects of one kind that a factory made at earlier
// points, in the order it made them, and makes more when a point needs
// more.
type objects[T any] struct {
	all  []*T
	next int
}

// get returns the next object, as its earlier point left it.
func (o *objects[T]) get() *T {
	if o.next == len(o.all) {
		o.all = append(o.all, new(T))
	}
	v := o.all[o.next]
	o.next++
	return v
}

// reset hands the objects out again from the first.
func (o *objects[T]) reset() { o.next = 0 }

// NewFactory returns a factory for PID 1, the single-program case.
func NewFactory(m *core.Machine) *Factory {
	f := core.MachineState[Factory](m)
	f.m, f.pid, f.Spills = m, 1, 0
	return f
}

// Release readies the factory for the machine's next point: its primitive
// objects can be handed out again, and its steps drop the continuations
// and tasks of the finished point. core.Machine.Finish calls it.
func (f *Factory) Release() {
	f.m = nil
	f.steps.release()
	m := &f.made
	m.cacheVars.reset()
	m.bmVars.reset()
	m.spinLocks.reset()
	m.mcsLocks.reset()
	m.central.reset()
	m.tournament.reset()
	m.data.reset()
	m.tone.reset()
	m.reducers.reset()
}

// NewTaskVar allocates a shared synchronization variable with the given
// initial value. On WiSync machines it lives in Broadcast Memory,
// transparently spilling to cached memory when the BM is full.
func (f *Factory) NewTaskVar(init uint64) TaskVar {
	if f.m.Cfg.Kind.HasBM() {
		if addr, err := f.m.BM.AllocBare(f.pid, false); err == nil {
			f.m.BM.Poke(addr, init)
			v := f.made.bmVars.get()
			v.addr = addr
			return v
		} else if !errors.Is(err, bmem.ErrFull) {
			panic(err)
		}
		f.Spills++
	}
	v := f.made.cacheVars.get()
	v.addr = f.m.AllocLine()
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
		l := f.made.spinLocks.get()
		*l = spinLock{f: f, v: f.NewTaskVar(0)}
		return l
	}
}

// NewTaskBarrier allocates a barrier for the given participant cores:
// centralized (Baseline), tournament (Baseline+), Data-channel fetch&inc
// (WiSyncNoT), or Tone-channel (WiSync, falling back to the Data channel if
// the tone tables are full). Participants must be known up front for tone
// barriers (Section 4.4); pass nil for "all cores".
func (f *Factory) NewTaskBarrier(participants []int) TaskBarrier {
	if participants == nil {
		f.all = f.all[:0]
		for i := range f.m.Cfg.Cores {
			f.all = append(f.all, i)
		}
		participants = f.all
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
			b := f.made.tone.get()
			*b = toneBarrier{addr: addr, sense: sim.Zeroed(b.sense, f.m.Cfg.Cores), f: f}
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
		b := f.made.data.get()
		*b = dataBarrier{addr: addr, n: uint64(n), ep: sim.Zeroed(b.ep, f.m.Cfg.Cores), f: f}
		return b
	}
	panic("syncprims: unknown configuration kind")
}
