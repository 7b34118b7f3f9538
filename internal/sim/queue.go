package sim

import "math/bits"

// event is one scheduled callback in the engine's queue. Events are stored
// by value in the queue's slices, so scheduling never heap-allocates an
// event record — the slices themselves are the engine's reusable pool of
// records.
//
// key packs (priority, sequence) into one word: the priority bit sits above
// the 63-bit sequence counter, so the engine's (time, priority, sequence)
// total order is just (t, key) — one comparison fewer per heap step, and a
// 24-byte event moves in one fewer word.
type event struct {
	t   Time
	key uint64
	fn  func()
}

// prioBit is the key bit that marks a PrioLate event. Sequence numbers stay
// below it for any feasible event count.
const prioBit = uint64(1) << 63

// before is the engine's total event order: (time, priority, sequence).
// The sequence strictly increases per engine, so no two events compare
// equal and the order is deterministic.
func before(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.key < b.key
}

// eventQueue is the engine's event storage: a timing wheel for near-future
// events backed by a 4-ary min-heap for everything past the wheel horizon.
// The wheel's 2,048 one-cycle buckets take what the simulator schedules
// ahead: protocol steps, spins and barrier episodes a few cycles out, and
// the backoff of a saturated channel — the MAC's collision windows (up to
// 512 cycles at 256 nodes) and all but the widest window of the CAS
// kernels' software backoff (2,048–4,095 cycles) — which the wheel
// dispatches in O(1) with no comparisons. The
// heap keeps the rare long sleep (an application's compute phase, a
// far-off horizon event) and any event under a reserved key older than
// the newest (pushHeap). wheelHits and heapFallbacks count the routing
// decisions, exposed through Engine.SchedStats for sweep diagnostics.
//
// Both levels dispatch in exact (time, priority, sequence) order and first/
// pop merge them by comparing their minima, so the composite is
// order-identical to a single heap (pinned by the fuzz/oracle suite in
// queue_fuzz_test.go).
type eventQueue struct {
	w wheel
	h heapQueue

	wheelHits     uint64
	heapFallbacks uint64
}

// len returns the total number of queued events.
func (q *eventQueue) len() int { return q.w.count + len(q.h.ev) }

// first returns the next event to dispatch without removing it, or nil if
// the queue is empty. The pointer is valid until the next queue mutation.
func (q *eventQueue) first() *event {
	if q.w.count == 0 {
		if len(q.h.ev) == 0 {
			return nil
		}
		return &q.h.ev[0]
	}
	wm := q.w.min()
	if len(q.h.ev) == 0 || before(wm, &q.h.ev[0]) {
		return wm
	}
	return &q.h.ev[0]
}

// push routes ev to the wheel when its timestamp lies within the wheel
// horizon of the current clock, and to the heap otherwise. The caller
// guarantees ev.t >= now, so every wheel entry satisfies the window
// invariant t in [now, now+wheelSpan) — each bucket therefore holds at most
// one distinct timestamp at any moment.
func (q *eventQueue) push(ev event, now Time) {
	if ev.t-now < wheelSpan {
		q.wheelHits++
		q.w.push(ev)
		return
	}
	q.heapFallbacks++
	q.h.push(ev)
}

// pushHeap queues ev in the heap whatever its time: the place for an event
// under a key older than some event a wheel bucket may already hold.
func (q *eventQueue) pushHeap(ev event) {
	q.heapFallbacks++
	q.h.push(ev)
}

// pop removes and returns the minimum event across both levels.
func (q *eventQueue) pop() event {
	if q.w.count == 0 {
		return q.h.pop()
	}
	if len(q.h.ev) == 0 || before(q.w.min(), &q.h.ev[0]) {
		return q.w.pop()
	}
	return q.h.pop()
}

// reset empties the queue for the engine's next run, keeping its arrays.
// Only occupied buckets hold events or burst arrays, so it visits those
// alone, by the occupancy bitmap: their events are cleared, burst arrays
// go back to the spares and every FIFO returns to its own array. The heap
// keeps its array, cleared. Nothing the queue keeps points back into the
// model of the run that queued it.
func (q *eventQueue) reset() {
	w := &q.w
	for i, word := range w.occ {
		for ; word != 0; word &= word - 1 {
			idx := i<<6 + bits.TrailingZeros64(word)
			b := &w.b[idx]
			for late, f := range [2]*fifo{&b.normal, &b.late} {
				clear(f.ev)
				f.head = 0
				if cap(f.ev) > normalKeep {
					w.shed(f, w.own(idx, late == 1))
				} else {
					f.ev = f.ev[:0]
				}
			}
		}
	}
	w.occ = [wheelWords]uint64{}
	w.count, w.minIdx = 0, 0
	clear(q.h.ev)
	q.h.ev = q.h.ev[:0]
	q.wheelHits, q.heapFallbacks = 0, 0
}

// ---- Timing wheel ----

// wheelSpan is the wheel horizon in cycles: events scheduled less than
// wheelSpan cycles ahead land in a bucket, the rest fall back to the heap.
// 2,048 takes the backoff of a saturated channel. Of the 1.66 M events a
// sweep-wireless pass of perfbench queues, 33,916 are scheduled 256–1,023
// cycles ahead, 8,338 at 1,024–2,047, 6,126 at 2,048–4,095, 6,114 at
// 4,096–65,535 and 1,074 further; a sweep-wired pass queues 4.93 M, of
// which 4,944 are 256–2,047 cycles ahead, 13,313 further and 55,474 under
// reserved keys (mean of four passes at workload seed 1). The wheel's
// storage is made once, so its size costs a point only the occupied
// buckets reset visits.
const (
	wheelBits  = 11
	wheelSpan  = 1 << wheelBits
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// fifo is one bucket's ordered event list. Events arrive in increasing
// sequence order (the engine's sequence counter is monotone), so FIFO order
// is dispatch order; consumed slots are zeroed so popped closures are
// collectable, and the backing array is reused once the bucket drains.
//
// A FIFO's backing array is either its bucket's own (normalKeep or
// lateKeep events) or a burst array borrowed from the wheel's spares: a
// full FIFO grows through wheel.grow, and a drained bucket hands burst
// arrays back (wheel.shed). Every array outside a FIFO's live range
// [head, len) is all zero.
type fifo struct {
	ev   []event
	head int
}

func (f *fifo) empty() bool { return f.head == len(f.ev) }

// push appends ev. The caller has made room (see wheel.push), so append
// never reallocates here.
func (f *fifo) push(ev event) { f.ev = append(f.ev, ev) }

func (f *fifo) pop() event {
	ev := f.ev[f.head]
	f.ev[f.head] = event{}
	f.head++
	if f.head == len(f.ev) {
		f.ev = f.ev[:0]
		f.head = 0
	}
	return ev
}

// bucket holds one timestamp's events, split by priority: every PrioNormal
// event precedes every PrioLate event of the same cycle, and within a
// priority FIFO order is sequence order, so the bucket minimum is always
// the head of normal, falling back to the head of late.
type bucket struct {
	normal fifo
	late   fifo
}

func (b *bucket) empty() bool { return b.normal.empty() && b.late.empty() }

func (b *bucket) min() *event {
	if !b.normal.empty() {
		return &b.normal.ev[b.normal.head]
	}
	return &b.late.ev[b.late.head]
}

// wheel is a single-level timing wheel of wheelSpan one-cycle buckets with
// an occupancy bitmap. The zero value is an empty, usable wheel. minIdx
// caches the bucket holding the minimum event; it is maintained eagerly —
// set unconditionally by the push that makes the wheel non-empty, updated
// by pushes that beat the cached minimum, re-scanned when the minimum
// bucket drains — so min() is two branches. minIdx is meaningless (stale)
// while count is 0 and must not be read then. The window invariant (all
// entries within [now, now+wheelSpan)) makes the circular scan from the
// drained bucket visit buckets in absolute-time order.
//
// store holds every bucket's own arrays, made by the wheel's first push
// and kept for the wheel's life: each bucket's FIFOs use their own arrays
// whenever they are not bursting, so no run after the first allocates
// for them. spares holds the burst arrays (longer than normalKeep) no
// FIFO is using. A burst borrows one and returns it when its bucket
// drains, so the spares number at most the bursts in flight at once,
// each sized by the largest burst it carried — not one high-water array
// per bucket.
type wheel struct {
	b      [wheelSpan]bucket
	occ    [wheelWords]uint64
	count  int
	minIdx int

	store  []event
	spares [][]event
}

// normalKeep and lateKeep are the lengths of a bucket's own arrays for
// its PrioNormal and PrioLate FIFOs. On the shapes of perfbench's sweeps,
// 86% of the PrioNormal pushes of the wireless kinds and 96% of the wired
// ones leave at most normalKeep events in their FIFO, and no PrioLate FIFO
// (channel arbitration) ever holds more than one event. Any array longer
// than normalKeep is a burst array.
const (
	normalKeep = 8
	lateKeep   = 1
	bucketKeep = normalKeep + lateKeep
)

// own returns bucket idx's own array for its PrioNormal or PrioLate FIFO,
// empty.
func (w *wheel) own(idx int, late bool) []event {
	i := idx * bucketKeep
	if late {
		return w.store[i+normalKeep : i+normalKeep : i+bucketKeep]
	}
	return w.store[i : i : i+normalKeep]
}

// makeStore makes the store and gives every bucket its own arrays.
func (w *wheel) makeStore() {
	w.store = make([]event, wheelSpan*bucketKeep)
	for idx := range w.b {
		w.b[idx].normal.ev = w.own(idx, false)
		w.b[idx].late.ev = w.own(idx, true)
	}
}

func (w *wheel) min() *event { return w.b[w.minIdx].min() }

func (w *wheel) push(ev event) {
	idx := int(ev.t) & wheelMask
	b := &w.b[idx]
	w.occ[idx>>6] |= 1 << (uint(idx) & 63)
	f := &b.normal
	if ev.key&prioBit != 0 {
		f = &b.late
	}
	if len(f.ev) == cap(f.ev) {
		w.grow(f)
	}
	f.push(ev)
	w.count++
	if w.count == 1 || before(&ev, w.b[w.minIdx].min()) {
		w.minIdx = idx
	}
}

func (w *wheel) pop() event {
	b := &w.b[w.minIdx]
	var ev event
	if !b.normal.empty() {
		ev = b.normal.pop()
	} else {
		ev = b.late.pop()
	}
	w.count--
	if b.empty() {
		w.occ[w.minIdx>>6] &^= 1 << (uint(w.minIdx) & 63)
		if cap(b.normal.ev) > normalKeep {
			w.shed(&b.normal, w.own(w.minIdx, false))
		}
		if cap(b.late.ev) > normalKeep {
			w.shed(&b.late, w.own(w.minIdx, true))
		}
		if w.count > 0 {
			w.minIdx = w.next(w.minIdx)
		}
		// An emptied wheel leaves minIdx stale; the push that refills it
		// resets the cache unconditionally.
	}
	return ev
}

// next returns the first occupied bucket at or after index from in circular
// order. The caller guarantees the wheel is non-empty, and the window
// invariant guarantees circular order from the previous minimum is
// absolute-time order.
func (w *wheel) next(from int) int {
	wi := from >> 6
	word := w.occ[wi] & (^uint64(0) << (uint(from) & 63))
	for k := 0; ; k++ {
		if word != 0 {
			return ((wi+k)&(wheelWords-1))<<6 + bits.TrailingZeros64(word)
		}
		word = w.occ[(wi+k+1)&(wheelWords-1)]
	}
}

// grow makes room in the full FIFO f. A zero wheel makes its store first,
// which gives f its own array. A FIFO at least half consumed is compacted
// in place. Otherwise its live events move to a spare that fits, else to
// a new array of twice their number and longer than normalKeep. A FIFO
// leaving its own array takes the shortest spare that fits, since most
// bursts end soon; one that outgrew a burst array is a long burst and
// takes the longest, so that it moves once more at most. The long spares
// thus go to the long bursts, and a run repeated after Init finds a
// spare for every burst it grew the first time. The array f leaves is
// cleared; a burst array goes back to the spares, and a bucket's own
// array stays in the store.
func (w *wheel) grow(f *fifo) {
	if w.store == nil {
		w.makeStore()
		return
	}
	live := len(f.ev) - f.head
	if f.head > 0 && f.head >= live {
		copy(f.ev, f.ev[f.head:])
		clear(f.ev[live:])
		f.ev, f.head = f.ev[:live], 0
		return
	}
	var ev []event
	shortest := cap(f.ev) <= normalKeep
	best := -1
	for i, a := range w.spares {
		if cap(a) > live && (best < 0 || (cap(a) < cap(w.spares[best])) == shortest) {
			best = i
		}
	}
	if best >= 0 {
		last := len(w.spares) - 1
		ev = w.spares[best]
		w.spares[best] = w.spares[last]
		w.spares[last] = nil
		w.spares = w.spares[:last]
	} else {
		ev = make([]event, 0, 2*max(live, normalKeep))
	}
	ev = append(ev, f.ev[f.head:]...)
	old := f.ev
	f.ev, f.head = ev, 0
	clear(old)
	if cap(old) > normalKeep {
		w.spares = append(w.spares, old[:0])
	}
}

// shed hands the burst array of the empty FIFO f to the spares and gives
// f its own array back.
func (w *wheel) shed(f *fifo, own []event) {
	w.spares = append(w.spares, f.ev[:0])
	f.ev = own
}

// ---- Heap fallback ----

// heapQueue is a 4-ary min-heap of events over a typed slice. Compared to
// container/heap it avoids the interface boxing (one heap allocation per
// Push) and the indirect Less/Swap calls; the 4-ary layout halves the tree
// depth, trading a few extra comparisons per level for far fewer cache-line
// moves. Popped slots are zeroed so the closures and processes they
// referenced are collectable.
type heapQueue struct {
	ev []event
}

// push inserts ev, sifting it up with moves instead of pairwise swaps.
func (q *heapQueue) push(ev event) {
	q.ev = append(q.ev, event{})
	h := q.ev
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed: a dangling copy would pin the event's closure (and everything it
// captures) for the queue's lifetime.
//
// The hole left at the root is filled bottom-up: first the hole descends
// along the min-child path to a leaf (no comparisons against the displaced
// tail element), then the tail element drops into the hole and sifts up.
// Because the tail is usually one of the largest events (it was pushed
// most recently, at the latest time), the sift-up almost always terminates
// immediately — this saves the per-level comparison a classic sift-down
// spends proving the tail element must keep descending.
func (q *heapQueue) pop() event {
	h := q.ev
	top := h[0]
	n := len(h) - 1
	ev := h[n]
	h[n] = event{}
	h = h[:n]
	q.ev = h
	if n == 0 {
		return top
	}
	// Descend the hole to a leaf along min children.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(&h[j], &h[m]) {
				m = j
			}
		}
		h[i] = h[m]
		i = m
	}
	// Drop the tail element into the hole and sift it up.
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	return top
}
