package sim

import (
	"container/heap"
	"testing"
)

// refHeap is a straightforward container/heap implementation of the event
// order. It is the oracle: the composite wheel+heap queue must dispatch the
// same events in the same (time, priority, sequence) order under any
// interleaving of schedules and pops.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return before(&h[i], &h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

// checkZeroedSlots asserts every vacated slot in the production queue is
// zeroed — the heap's popped tail slot and the consumed prefix of every
// wheel bucket — or the popped events' closures (and everything they
// capture) stay pinned by the backing arrays.
func checkZeroedSlots(t *testing.T, q *eventQueue, opIdx int) {
	t.Helper()
	if n := len(q.h.ev); n < cap(q.h.ev) {
		if tail := q.h.ev[:n+1][n]; tail.fn != nil {
			t.Fatalf("op %d: popped heap slot %d not zeroed", opIdx, n)
		}
	}
	for i := range q.w.b {
		b := &q.w.b[i]
		for j := 0; j < b.normal.head; j++ {
			if ev := &b.normal.ev[j]; ev.fn != nil {
				t.Fatalf("op %d: consumed wheel slot (bucket %d, normal %d) not zeroed", opIdx, i, j)
			}
		}
		for j := 0; j < b.late.head; j++ {
			if ev := &b.late.ev[j]; ev.fn != nil {
				t.Fatalf("op %d: consumed wheel slot (bucket %d, late %d) not zeroed", opIdx, i, j)
			}
		}
	}
}

// queueOracle drives the production wheel+heap composite and the reference
// heap through the same operation stream and fails on the first divergence.
// Each byte of ops is one operation, reproducing the engine's real usage —
// monotone base time, pushes never in the past, interleaved pops (including
// pops that empty the queue):
//
//	op&3 == 3: pop
//	op&3 == 2: far-future push at now + (200 + (op>>3)*97)*wheelSpan/256
//	           — offsets from just inside the wheel horizon to ~12x past
//	           it, so events land in the heap and cross the horizon as
//	           the clock advances toward them
//	otherwise: near push at now + op>>3 (0..31 cycles, the wheel's bread
//	           and butter), PrioLate when op&4 is set
func queueOracle(t *testing.T, ops []byte) {
	t.Helper()
	var q eventQueue
	ref := &refHeap{}
	var seq uint64
	var now Time // tracks the engine clock: pops advance it, pushes are >= now

	for i, op := range ops {
		if op&3 == 3 && q.len() > 0 {
			got := q.pop()
			want := heap.Pop(ref).(event)
			if got.t != want.t || got.key != want.key {
				t.Fatalf("op %d: pop order diverged: got (t=%d key=%#x), reference (t=%d key=%#x)",
					i, got.t, got.key, want.t, want.key)
			}
			if got.t < now {
				t.Fatalf("op %d: pop went back in time: %d < %d", i, got.t, now)
			}
			now = got.t
			checkZeroedSlots(t, &q, i)
			continue
		}
		seq++
		d := Time(op >> 3)
		if op&3 == 2 {
			d = (200 + Time(op>>3)*97) * wheelSpan / 256
		}
		ev := event{t: now + d, key: seq, fn: func() {}}
		if op&4 != 0 {
			ev.key |= prioBit
		}
		q.push(ev, now)
		heap.Push(ref, ev)
	}
	// Drain both completely: the tail of the stream must agree too, and
	// every heap-fallback event is eventually popped after crossing the
	// wheel horizon.
	for q.len() > 0 {
		got := q.pop()
		want := heap.Pop(ref).(event)
		if got.t != want.t || got.key != want.key {
			t.Fatalf("drain: pop order diverged: got (t=%d key=%#x), reference (t=%d key=%#x)",
				got.t, got.key, want.t, want.key)
		}
	}
	if ref.Len() != 0 {
		t.Fatalf("drain: production queue empty, reference still holds %d events", ref.Len())
	}
}

// FuzzEventQueueMatchesReferenceHeap fuzzes the wheel+heap composite
// against container/heap. The seed corpus covers the interesting shapes:
// pure FIFO, same-cycle bursts with mixed priorities, push/pop churn,
// repeated emptying, and far-future events that cross the wheel horizon —
// alone, racing near events, and in same-tick priority ties.
func FuzzEventQueueMatchesReferenceHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 3, 3})                   // same-slot burst, drain
	f.Add([]byte{8, 16, 24, 3, 32, 3, 3, 3})          // monotone pushes with pops
	f.Add([]byte{4, 0, 4, 0, 3, 3, 4, 3, 3})          // PrioLate vs PrioNormal ties
	f.Add([]byte{255, 7, 3, 255, 7, 3, 255, 7, 3})    // far/near alternation, churn
	f.Add([]byte{1, 3, 1, 3, 1, 3, 1, 3})             // empty-refill cycles
	f.Add([]byte{2, 10, 3, 3, 2, 3})                  // horizon-crossing heap events
	f.Add([]byte{2, 2, 2, 3, 3, 3, 3})                // heap-only burst, full drain
	f.Add([]byte{250, 2, 6, 3, 3, 3, 250, 6, 2, 3})   // far bursts with late bits
	f.Add([]byte{2, 0, 8, 3, 3, 3, 2, 4, 3, 3, 3, 3}) // wheel/heap merge at the boundary
	f.Fuzz(queueOracle)
}

// TestEventQueueRandomOracle runs the same oracle over long seeded random
// streams, so heavy randomized coverage happens on every plain `go test`
// run, not only under `go test -fuzz`.
func TestEventQueueRandomOracle(t *testing.T) {
	rng := NewRand(20260728)
	for trial := 0; trial < 50; trial++ {
		n := 64 + rng.Intn(512)
		ops := make([]byte, n)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		queueOracle(t, ops)
	}
}

// reservedOracle drives an engine's queue through Schedule, Reserve and
// ScheduleReserved and the reference heap through the same events, and
// fails on the first divergence. Keys reserved earlier are scheduled
// later, at times inside the wheel horizon, while newer events are
// already queued: the way a directory line turns a waiter's reserved
// arrival back into an event. Each byte of ops is one operation:
//
//	op&3 == 3: pop, advancing the clock
//	op&3 == 2: reserve a key
//	op&3 == 1: schedule under a reserved key, picked by op>>2, at
//	           now + op>>4 (0..15 cycles); a plain push when none is held
//	otherwise: schedule at now + op>>3, PrioLate when op&4 is set
func reservedOracle(t *testing.T, ops []byte) {
	t.Helper()
	e := NewEngine(1)
	ref := &refHeap{}
	var reserved []uint64
	fn := func() {}
	for i, op := range ops {
		switch {
		case op&3 == 3:
			if e.q.len() == 0 {
				continue
			}
			got := e.q.pop()
			want := heap.Pop(ref).(event)
			if got.t != want.t || got.key != want.key {
				t.Fatalf("op %d: pop order diverged: got (t=%d key=%#x), reference (t=%d key=%#x)",
					i, got.t, got.key, want.t, want.key)
			}
			e.now = got.t
			checkZeroedSlots(t, &e.q, i)
		case op&3 == 2:
			reserved = append(reserved, e.Reserve())
		case op&3 == 1 && len(reserved) > 0:
			k := int(op>>2) % len(reserved)
			key := reserved[k]
			reserved = append(reserved[:k], reserved[k+1:]...)
			at := e.now + Time(op>>4)
			e.ScheduleReserved(at, key, fn)
			heap.Push(ref, event{t: at, key: key})
		default:
			prio := PrioNormal
			if op&4 != 0 {
				prio = PrioLate
			}
			at := e.now + Time(op>>3)
			e.ScheduleAt(at, prio, fn)
			key := e.seq
			if prio == PrioLate {
				key |= prioBit
			}
			heap.Push(ref, event{t: at, key: key})
		}
	}
	for e.q.len() > 0 {
		got := e.q.pop()
		want := heap.Pop(ref).(event)
		if got.t != want.t || got.key != want.key {
			t.Fatalf("drain: pop order diverged: got (t=%d key=%#x), reference (t=%d key=%#x)",
				got.t, got.key, want.t, want.key)
		}
	}
	if ref.Len() != 0 {
		t.Fatalf("drain: production queue empty, reference still holds %d events", ref.Len())
	}
}

// FuzzReservedKeysMatchReferenceHeap fuzzes events pushed under keys
// older than the newest, at times inside the wheel horizon, against
// container/heap. The seeds cover an old key behind newer events in its
// cycle, the newest key (which may use the wheel), several old keys in
// one cycle, and old keys interleaved with pops.
func FuzzReservedKeysMatchReferenceHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 40, 40, 1, 3, 3, 3})         // old key, then newer events in its cycle
	f.Add([]byte{2, 17, 3})                      // the newest key
	f.Add([]byte{2, 2, 2, 8, 33, 37, 41, 3, 3})  // several old keys in one cycle
	f.Add([]byte{2, 0, 3, 2, 4, 49, 3, 21, 3})   // old keys between pops
	f.Add([]byte{2, 2, 244, 5, 241, 3, 3, 3, 3}) // late events and old keys
	f.Fuzz(reservedOracle)
}

// TestReservedKeysRandomOracle runs reservedOracle over seeded random
// streams on every plain `go test` run.
func TestReservedKeysRandomOracle(t *testing.T) {
	rng := NewRand(20261019)
	for trial := 0; trial < 50; trial++ {
		ops := make([]byte, 64+rng.Intn(512))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		reservedOracle(t, ops)
	}
}
