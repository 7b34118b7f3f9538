package syncprims

import (
	"wisync/internal/core"
	"wisync/internal/sim"
)

// Eureka is an OR-barrier (Section 4.3.2): it fires as soon as any
// participant triggers it — a parallel search hit, an overflow, an
// exception. It is reusable through per-core generation counters (the
// sense-reversing idea with an epoch instead of a boolean).
type Eureka struct {
	v   TaskVar
	gen []uint64
}

// NewEureka allocates an OR-barrier.
func (f *Factory) NewEureka() *Eureka {
	return &Eureka{v: f.NewTaskVar(0), gen: make([]uint64, f.m.Cfg.Cores)}
}

// TriggerTask fires the eureka for the current generation; then runs once
// the trigger is visible. Multiple triggers of one generation are
// idempotent.
func (e *Eureka) TriggerTask(t *core.Task, then func()) {
	gen := e.gen[t.Core]
	e.v.LoadTask(t, func(v uint64) {
		if v > gen {
			then() // already fired
			return
		}
		e.v.StoreTask(t, gen+1, then)
	})
}

// TriggeredTask polls whether the current generation has fired.
func (e *Eureka) TriggeredTask(t *core.Task, then func(bool)) {
	gen := e.gen[t.Core]
	e.v.LoadTask(t, func(v uint64) { then(v > gen) })
}

// WaitTriggeredTask runs then once the current generation fires.
func (e *Eureka) WaitTriggeredTask(t *core.Task, then func()) {
	gen := e.gen[t.Core]
	e.v.SpinUntilTask(t, sim.Ge(gen+1), func(uint64) { then() })
}

// Ack consumes the current generation locally, re-arming the eureka for
// reuse by this thread.
func (e *Eureka) Ack(t *core.Task) { e.gen[t.Core]++ }

// PC is a single-producer single-consumer channel (Section 4.3.4): a data
// area plus a full/empty flag. On WiSync machines with word count 4 the
// producer uses one Bulk store (15 cycles) instead of four messages.
type PC struct {
	words  int
	bulk   bool
	bmData uint32    // contiguous BM words when bulk
	data   []TaskVar // otherwise
	flag   TaskVar
}

// NewPC allocates a producer-consumer channel carrying the given number of
// 64-bit words (1..4).
func (f *Factory) NewPC(words int) *PC {
	if words < 1 || words > 4 {
		panic("syncprims: PC carries 1..4 words")
	}
	pc := &PC{words: words, flag: f.NewTaskVar(0)}
	if words == 4 && f.m.Cfg.Kind.HasBM() {
		if base, err := f.m.BM.AllocBareContiguous(f.pid, 4); err == nil {
			pc.bulk = true
			pc.bmData = base
			return pc
		}
		f.Spills++
	}
	pc.data = make([]TaskVar, words)
	for i := range pc.data {
		pc.data[i] = f.NewTaskVar(0)
	}
	return pc
}

// ProduceTask publishes vals (len == words): wait for the slot to be
// empty, write the data, set the flag; then runs once the flag is set.
func (pc *PC) ProduceTask(t *core.Task, vals []uint64, then func()) {
	setFlag := func() { pc.flag.StoreTask(t, 1, then) }
	pc.flag.SpinUntilTask(t, sim.Eq(0), func(uint64) {
		if pc.bulk {
			var four [4]uint64
			copy(four[:], vals)
			t.BMBulkStore(pc.bmData, four, setFlag)
			return
		}
		storeFrom(t, pc.data, vals, setFlag)
	})
}

// storeFrom stores vals[i] into vars[i] one after another, then runs then.
func storeFrom(t *core.Task, vars []TaskVar, vals []uint64, then func()) {
	if len(vals) == 0 {
		then()
		return
	}
	vars[0].StoreTask(t, vals[0], func() { storeFrom(t, vars[1:], vals[1:], then) })
}

// ConsumeTask waits until data is available, reads it into out (len ==
// words), and clears the flag; then runs once the flag is clear.
func (pc *PC) ConsumeTask(t *core.Task, out []uint64, then func()) {
	clearFlag := func() { pc.flag.StoreTask(t, 0, then) }
	pc.flag.SpinUntilTask(t, sim.Eq(1), func(uint64) {
		if pc.bulk {
			t.BMBulkLoad(pc.bmData, func(four [4]uint64) {
				copy(out, four[:])
				clearFlag()
			})
			return
		}
		loadInto(t, pc.data, out, clearFlag)
	})
}

// loadInto loads vars[i] into out[i] one after another, then runs then.
func loadInto(t *core.Task, vars []TaskVar, out []uint64, then func()) {
	if len(out) == 0 {
		then()
		return
	}
	vars[0].LoadTask(t, func(v uint64) {
		out[0] = v
		loadInto(t, vars[1:], out[1:], then)
	})
}

// Multicast is the single-producer multiple-consumer pattern of Section
// 4.3.5 / Figure 4(d): data plus a reader count and a toggling flag packed
// as a sense-reversing release.
type Multicast struct {
	data    TaskVar
	count   TaskVar
	flag    TaskVar
	readers uint64
	sense   []uint64
}

// NewMulticast allocates a multicast slot with the given reader count.
func (f *Factory) NewMulticast(readers int) *Multicast {
	return &Multicast{
		data:    f.NewTaskVar(0),
		count:   f.NewTaskVar(0),
		flag:    f.NewTaskVar(0),
		readers: uint64(readers),
		sense:   make([]uint64, f.m.Cfg.Cores),
	}
}

// ProduceTask publishes val to all readers and waits until every reader
// took it: write data, set count to N, toggle the flag, spin on count == 0;
// then runs once the last reader acknowledged.
func (mc *Multicast) ProduceTask(t *core.Task, val uint64, then func()) {
	s := mc.sense[t.Core] ^ 1
	mc.sense[t.Core] = s
	mc.data.StoreTask(t, val, func() {
		mc.count.StoreTask(t, mc.readers, func() {
			mc.flag.StoreTask(t, s, func() {
				mc.count.SpinUntilTask(t, sim.Eq(0), func(uint64) { then() })
			})
		})
	})
}

// ConsumeTask waits for the next published value and acknowledges it: spin
// on the flag toggle, read data, fetch&add(count, -1); then receives the
// value.
func (mc *Multicast) ConsumeTask(t *core.Task, then func(uint64)) {
	s := mc.sense[t.Core] ^ 1
	mc.sense[t.Core] = s
	mc.flag.SpinUntilTask(t, sim.Eq(s), func(uint64) {
		mc.data.LoadTask(t, func(v uint64) {
			mc.count.FetchAddTask(t, ^uint64(0), func(uint64) { then(v) }) // -1
		})
	})
}

// Reducer accumulates values from many threads into one variable with
// fetch&add — the tight reduction loop of Section 4.3.5.
type Reducer struct {
	v TaskVar
}

// NewReducer allocates a reduction variable initialized to init.
func (f *Factory) NewReducer(init uint64) *Reducer { return &Reducer{v: f.NewTaskVar(init)} }

// AddTask contributes delta; then receives the total before the add. Hot
// callers pass one cached continuation, so an add captures nothing.
func (r *Reducer) AddTask(t *core.Task, delta uint64, then func(uint64)) {
	r.v.FetchAddTask(t, delta, then)
}

// ValueTask reads the current total.
func (r *Reducer) ValueTask(t *core.Task, then func(uint64)) { r.v.LoadTask(t, then) }

// Var exposes the underlying variable (for draining or resetting).
func (r *Reducer) Var() TaskVar { return r.v }
