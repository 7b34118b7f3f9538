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
// The hierarchy matches the engine's workload: hardware models and workload
// threads sleep mostly 2–110 cycles (cache round trips, channel slots,
// backoff windows, barrier episodes), which the wheel dispatches in O(1)
// with no comparisons, while the rare long sleep — an application's
// 100k-cycle compute phase, a far-off horizon event — falls back to the
// heap, as does an event under a reserved key older than the newest
// (pushHeap). wheelHits and heapFallbacks count the routing decisions,
// exposed through Engine.SchedStats for sweep diagnostics.
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

// reset empties the queue for the engine's next run, keeping its arrays:
// every FIFO array goes to the wheel's spares or smalls by size, and the
// heap keeps its array. The spares and smalls lists themselves are kept,
// so a steady stream of runs grows no list. Queued events are cleared
// first, so nothing the queue keeps points back into the model of the
// run that queued them.
func (q *eventQueue) reset() {
	w := &q.w
	spares, smalls := w.spares, w.smalls
	for i := range w.b {
		for _, f := range [2]*fifo{&w.b[i].normal, &w.b[i].late} {
			clear(f.ev)
			switch {
			case cap(f.ev) > fifoKeep:
				spares = append(spares, f.ev[:0])
			case cap(f.ev) == fifoKeep:
				smalls = append(smalls, f.ev[:0])
			}
		}
	}
	clear(q.h.ev)
	*q = eventQueue{w: wheel{spares: spares, smalls: smalls}, h: heapQueue{ev: q.h.ev[:0]}}
}

// ---- Timing wheel ----

// wheelSpan is the wheel horizon in cycles: events scheduled less than
// wheelSpan cycles ahead land in a bucket, the rest fall back to the heap.
// 256 covers the simulator's observed sleep distribution (2–110 cycles for
// protocol steps, spins and backoff; see the sizing note on eventQueue)
// with headroom, while keeping the bucket array small enough that a fresh
// engine's zero-fill is negligible next to machine construction.
const (
	wheelBits  = 8
	wheelSpan  = 1 << wheelBits
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// fifo is one bucket's ordered event list. Events arrive in increasing
// sequence order (the engine's sequence counter is monotone), so FIFO order
// is dispatch order; consumed slots are zeroed so popped closures are
// collectable, and the backing array is reused once the bucket drains.
//
// A FIFO's backing array is either small (fifoKeep events) or a burst
// array borrowed from the wheel's spares: a full FIFO grows through
// wheel.grow, and a drained bucket hands burst arrays back (wheel.shed).
// Every array outside a FIFO's live range [head, len) is all zero.
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
// spares and smalls hold the backing arrays no FIFO is using: burst arrays
// (more than fifoKeep events) that drained buckets handed back, and the
// small arrays of FIFOs that borrowed a burst array. A burst borrows an
// array and returns it when its bucket drains, so the spares number at
// most the bursts in flight at once, each sized by the largest burst it
// carried — not one high-water array per bucket.
type wheel struct {
	b      [wheelSpan]bucket
	occ    [wheelWords]uint64
	count  int
	minIdx int

	spares [][]event
	smalls [][]event
}

// fifoKeep is the capacity of a FIFO's own array. A bucket that drains
// with a larger array hands it to the spares; most buckets hold a few
// events at a time and keep theirs.
const fifoKeep = 8

func (w *wheel) min() *event { return w.b[w.minIdx].min() }

func (w *wheel) push(ev event) {
	idx := int(ev.t) & wheelMask
	b := &w.b[idx]
	if b.empty() {
		w.occ[idx>>6] |= 1 << (uint(idx) & 63)
	}
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
		if cap(b.normal.ev) > fifoKeep {
			w.shed(&b.normal)
		}
		if cap(b.late.ev) > fifoKeep {
			w.shed(&b.late)
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

// grow makes room in the full FIFO f. A FIFO at least half consumed is
// compacted in place. Otherwise its live events move to a larger array:
// a small one if f has none yet, else the largest spare that fits, else a
// new array of twice its length. The array it leaves is cleared and kept.
func (w *wheel) grow(f *fifo) {
	live := len(f.ev) - f.head
	if f.head > 0 && f.head >= live {
		copy(f.ev, f.ev[f.head:])
		clear(f.ev[live:])
		f.ev, f.head = f.ev[:live], 0
		return
	}
	var ev []event
	switch {
	case cap(f.ev) < fifoKeep:
		if ev = w.takeSmall(); ev == nil {
			ev = make([]event, 0, fifoKeep)
		}
	default:
		best := -1
		for i, a := range w.spares {
			if cap(a) > live && (best < 0 || cap(a) > cap(w.spares[best])) {
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
			ev = make([]event, 0, 2*live)
		}
	}
	ev = append(ev, f.ev[f.head:]...)
	old := f.ev
	f.ev, f.head = ev, 0
	clear(old)
	switch {
	case cap(old) > fifoKeep:
		w.spares = append(w.spares, old[:0])
	case cap(old) == fifoKeep:
		w.smalls = append(w.smalls, old[:0])
	}
}

// shed hands the burst array of drained FIFO f to the spares and gives f
// a small array back, if one is free.
func (w *wheel) shed(f *fifo) {
	w.spares = append(w.spares, f.ev)
	f.ev = w.takeSmall()
}

// takeSmall returns a free small array, or nil if there is none.
func (w *wheel) takeSmall() []event {
	k := len(w.smalls)
	if k == 0 {
		return nil
	}
	a := w.smalls[k-1]
	w.smalls[k-1] = nil
	w.smalls = w.smalls[:k-1]
	return a
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
