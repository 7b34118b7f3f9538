package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestPoppedEventsDontPinClosures is a regression test for a memory
// retention bug in the old container/heap event queue: the popped slot in
// the underlying array kept the event's fn closure alive, pinning
// everything the closure captured for the queue's lifetime. The queue must
// zero vacated slots so executed closures are collectable.
func TestPoppedEventsDontPinClosures(t *testing.T) {
	e := NewEngine(1)
	fin := make(chan struct{})
	obj := new([1 << 20]byte)
	runtime.SetFinalizer(obj, func(*[1 << 20]byte) { close(fin) })
	e.Schedule(1, func() { obj[0] = 1 })
	// A later event keeps the queue non-empty across the pop, so the
	// vacated slot is a live array slot rather than a freed slice.
	e.Schedule(2, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	obj = nil
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-fin:
			return
		case <-deadline:
			t.Fatal("popped event still pins its closure: slot not zeroed")
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestEventQueueOrderProperty drives the wheel+heap composite with
// adversarial timestamps — same-cycle bursts, mixed priorities, and offsets
// straddling the wheel horizon — under the engine's monotone-clock
// contract, and checks it pops in exact (time, priority, sequence) order
// against a linear-scan reference.
func TestEventQueueOrderProperty(t *testing.T) {
	rng := NewRand(77)
	var q eventQueue
	var seq uint64
	var now Time
	type ref struct {
		t   Time
		key uint64
	}
	var want []ref
	pushOne := func() {
		seq++
		// Mostly near offsets (wheel), occasionally from inside the
		// horizon to far past it (heap fallback).
		d := Time(rng.Intn(50))
		if rng.Intn(5) == 0 {
			d = Time(100+rng.Intn(900)) * wheelSpan / 256
		}
		key := seq
		if rng.Intn(3) == 0 {
			key |= prioBit
		}
		q.push(event{t: now + d, key: key, fn: func() {}}, now)
		want = append(want, ref{now + d, key})
	}
	popOne := func() {
		best := 0
		for i := 1; i < len(want); i++ {
			if want[i].t < want[best].t ||
				(want[i].t == want[best].t && want[i].key < want[best].key) {
				best = i
			}
		}
		ev := q.pop()
		if ev.t != want[best].t || ev.key != want[best].key {
			t.Fatalf("pop = (%d,%#x), want (%d,%#x)", ev.t, ev.key, want[best].t, want[best].key)
		}
		now = ev.t
		want = append(want[:best], want[best+1:]...)
	}
	// Interleave pushes and pops so both levels are exercised at many
	// sizes, including events that cross the horizon between push and pop.
	for round := 0; round < 2000; round++ {
		if len(want) == 0 || rng.Intn(3) > 0 {
			pushOne()
		} else {
			popOne()
		}
	}
	for len(want) > 0 {
		popOne()
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
}

// TestSchedStatsCountRouting checks the wheel-hit / heap-fallback counters:
// near events land in the wheel, far ones in the heap.
func TestSchedStatsCountRouting(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i*7%wheelSpan), func() {})
	}
	for i := 0; i < 3; i++ {
		e.Schedule(wheelSpan+Time(i*1000), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.SchedStats()
	if st.WheelEvents != 10 || st.HeapEvents != 3 {
		t.Fatalf("SchedStats = %+v, want 10 wheel and 3 heap events", st)
	}
	e.StepPoolMiss()
	e.StepPoolHit()
	e.StepPoolHit()
	st = e.SchedStats()
	if st.StepPoolHits != 2 || st.StepPoolMisses != 1 {
		t.Fatalf("SchedStats = %+v, want 2 pool hits and 1 miss", st)
	}
}

// TestReinitQueueHoldsNoEvents: Engine.Init keeps a queue's arrays, not
// its events. Events still queued when a run stops (a CAS kernel stops at
// its horizon with threads mid-flight) are cleared, so the next run's
// arrays point into nothing of the model that queued them; and an engine
// run again after Init dispatches exactly as a new one does.
func TestReinitQueueHoldsNoEvents(t *testing.T) {
	run := func(e *Engine) []int {
		var order []int
		rng := NewRand(5)
		for i := 0; i < 3000; i++ {
			d := Time(rng.Intn(40)) // about 75 events per bucket: bursts
			if rng.Intn(8) == 0 {
				d = wheelSpan + Time(rng.Intn(2000))
			}
			prio := PrioNormal
			if rng.Intn(3) == 0 {
				prio = PrioLate
			}
			e.ScheduleAt(d, prio, func() { order = append(order, i) })
		}
		e.RunUntil(30)
		if e.Pending() == 0 {
			t.Fatal("nothing left queued at the cut; the test does not exercise clearing")
		}
		return order
	}
	e := NewEngine(1)
	want := run(e)
	e.Init(1)
	if e.Pending() != 0 || e.Now() != 0 {
		t.Errorf("re-initialized engine holds %d events at cycle %d", e.Pending(), e.Now())
	}
	w := &e.q.w
	if len(w.spares) == 0 || w.store == nil || cap(e.q.h.ev) == 0 {
		t.Fatalf("Init kept %d spares, a store of %d events, heap cap %d; want some of each",
			len(w.spares), len(w.store), cap(e.q.h.ev))
	}
	for i := range w.b {
		if b := &w.b[i]; len(b.normal.ev) != 0 || len(b.late.ev) != 0 ||
			cap(b.normal.ev) != normalKeep || cap(b.late.ev) != lateKeep {
			t.Fatalf("bucket %d left Init with FIFO arrays of length %d and %d, capacity %d and %d; want its own, empty",
				i, len(b.normal.ev), len(b.late.ev), cap(b.normal.ev), cap(b.late.ev))
		}
	}
	for _, a := range append([][]event{e.q.h.ev, w.store[:0]}, w.spares...) {
		if len(a) != 0 {
			t.Fatalf("kept array has length %d, want 0", len(a))
		}
		for _, ev := range a[:cap(a)] {
			if ev.fn != nil || ev.t != 0 || ev.key != 0 {
				t.Fatalf("kept array holds an event (t=%d key=%#x)", ev.t, ev.key)
			}
		}
	}
	if got := run(e); !slices.Equal(got, want) {
		t.Errorf("a re-initialized engine dispatched %d events differently from a new one", len(want))
	}
}

// TestReinitAllocFree: a queue reset after a burst takes the next burst
// without allocating. reset returns burst arrays to the spares list the
// queue already has, instead of growing a new list, and every bucket
// keeps its own arrays.
func TestReinitAllocFree(t *testing.T) {
	var q eventQueue
	nop := func() {}
	cycle := func() {
		for i := 0; i < 3000; i++ {
			d := Time(i % (wheelSpan + 44)) // every bucket, and past the wheel into the heap
			if i%4 == 0 {
				d = 7 // one burst of 750 events
			}
			q.push(event{t: d, key: uint64(i + 1), fn: nop}, 0)
		}
		for q.len() > 0 {
			q.pop()
		}
		q.reset()
	}
	for range 4 {
		cycle() // warm up the storage the queue keeps
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("3000 events and a reset allocated %v objects, want 0", allocs)
	}
}

// TestWheelStorageKeptAcrossRuns pins the wheel's once-per-engine storage:
// a run whose clock walks more than two wheel spans, with a burst in
// every bucket at both priorities, allocates nothing when it runs a
// second time after Init. The first run makes the store and the burst
// arrays; Init must keep both, each bucket on its own arrays. The second
// run is measured on up to three new engines: storage the engine does not
// keep allocates on every one, a goroutine of the runtime (running an
// earlier test's finalizers) only now and then.
func TestWheelStorageKeptAcrossRuns(t *testing.T) {
	const walk = 2*wheelSpan + wheelSpan/2
	nop := func() {}
	secondRun := func() uint64 {
		e := NewEngine(1)
		// step schedules a burst at the far edge of the wheel, so every
		// bucket fills while earlier ones drain: 9 to 20 PrioNormal events
		// (past a bucket's own array) and 1 to 3 PrioLate ones.
		var step func()
		step = func() {
			now := e.Now()
			at := now + wheelSpan - 1
			for k := 0; k < normalKeep+1+int(now%12); k++ {
				e.ScheduleAt(at, PrioNormal, nop)
			}
			for k := 0; k <= int(now%3); k++ {
				e.ScheduleAt(at, PrioLate, nop)
			}
			if now < walk {
				e.Schedule(1, step)
			}
		}
		run := func() {
			e.Init(1)
			e.Schedule(0, step)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if e.Now() < walk {
				t.Fatalf("the clock stopped at %d, want past %d", e.Now(), walk)
			}
		}
		run()
		allocs := mallocs(run)
		if st := e.SchedStats(); st.HeapEvents != 0 {
			t.Fatalf("%d events went to the heap; the bursts must all land in buckets", st.HeapEvents)
		}
		return allocs
	}
	allocs := secondRun()
	for trial := 1; trial < 3 && allocs != 0; trial++ {
		allocs = min(allocs, secondRun())
	}
	if allocs != 0 {
		t.Errorf("a run walking %d cycles allocated %d objects after Init, want 0", walk, allocs)
	}
}

// mallocs returns the number of objects f allocates, counted as
// testing.AllocsPerRun counts them, on one P after a collection, so that
// no other goroutine of the runtime allocates meanwhile; but of a single
// call, the one a test means.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
