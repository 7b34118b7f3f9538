package wireless

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"wisync/internal/sim"
)

// TestRequestPoolRecycle drives a chain of sequential messages through one
// channel and asserts the request records recycle: the whole chain must be
// served by a single pooled record, returned to the freelist after the
// last commit.
func TestRequestPoolRecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, Params{})
	const msgs = 50
	sent := 0
	var issue func(committed bool)
	issue = func(committed bool) {
		if sent > 0 && !committed {
			t.Error("uncontended message did not commit")
		}
		if sent == msgs {
			return
		}
		sent++
		n.SendAsync(Msg{Src: sent % 4, Addr: 7, Val: uint64(sent)}, nil, issue)
	}
	eng.Schedule(0, func() { issue(true) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != msgs {
		t.Fatalf("committed %d messages, want %d", n.Stats.Messages, msgs)
	}
	free := freeRecords(&n.reqs)
	if got := len(free); got != 1 {
		t.Fatalf("freelist holds %d records after sequential chain, want 1", got)
	}
	if got := free[0].epoch; got != msgs {
		t.Errorf("pooled record epoch %d, want %d (one bump per trip)", got, msgs)
	}
}

// freeRecords returns the records free on l, leaving l as it was.
func freeRecords[T any](l *sim.FreeList[T]) []*T {
	var out []*T
	for s := l.Get(); s != nil; s = l.Get() {
		out = append(out, s)
	}
	for i := len(out) - 1; i >= 0; i-- {
		l.Put(out[i])
	}
	return out
}

// TestCutRunReclaimsInFlight: what a run cut at its horizon leaves in
// flight — requests in contention slots, the pending slots with their
// request arrays, commit and delivery continuations — goes back to the
// free lists at the channel's next Init, cleared. So the same storm cut
// again on the re-Init'ed channel makes no slot, request or continuation.
func TestCutRunReclaimsInFlight(t *testing.T) {
	const nodes, horizon = 64, 2000
	eng := sim.NewEngine(1)
	n := New(eng, nodes, Params{})
	// Every node sends, and sends again as each send completes.
	resend := make([]func(bool), nodes)
	for src := range resend {
		resend[src] = func(bool) { n.SendAsync(Msg{Src: src, Addr: uint32(src)}, nil, resend[src]) }
	}
	counts := func() [4]int {
		return [4]int{len(freeRecords(&n.reqs)), len(freeRecords(&n.macs.backoff.slots)),
			len(freeRecords(&n.commits)), len(freeRecords(&n.delivers))}
	}
	cut := func() {
		eng.Init(1)
		n.Init(eng, nodes, Params{})
		eng.Schedule(0, func() {
			for _, f := range resend {
				f(true)
			}
		})
		eng.RunUntil(horizon)
		eng.Shutdown()
	}
	cut()
	if n.Stats.Messages == 0 || n.Stats.Collisions == 0 {
		t.Fatalf("the storm committed %d messages with %d collisions", n.Stats.Messages, n.Stats.Collisions)
	}
	held := counts()
	n.Init(eng, nodes, Params{})
	made := counts()
	if held[0] >= made[0] || held[1] >= made[1] {
		t.Fatalf("free requests and slots %v at the cut, %v after Init: the cut left none in flight", held, made)
	}
	for _, r := range freeRecords(&n.reqs) {
		if r.then != nil || r.queued {
			t.Fatal("a request taken back from the cut run keeps its continuation or its place in a MAC list")
		}
	}
	cut()
	n.Init(eng, nodes, Params{})
	if again := counts(); again != made {
		t.Errorf("requests, slots, commits and deliveries: %v after the first cut run, %v after the second", made, again)
	}
}

// TestStaleTokenCancel holds a Token past its message's commit and cancels
// only after the pooled record has been reissued to a different sender: the
// stale Cancel must be refused and the second message must still commit.
func TestStaleTokenCancel(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, Params{})
	var tok Token
	second := false
	eng.Schedule(0, func() {
		n.SendAsync(Msg{Src: 0, Addr: 1, Val: 1}, &tok, func(committed bool) {
			if !committed {
				t.Error("first message did not commit")
			}
			// The record just returned to the pool; reissue it for a
			// different sender, without a token.
			n.SendAsync(Msg{Src: 1, Addr: 2, Val: 2}, nil, func(committed bool) {
				second = committed
			})
			if tok.Cancel() {
				t.Error("stale Cancel succeeded; it would have withdrawn another sender's message")
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !second {
		t.Error("second message did not commit")
	}
	if n.Stats.Withdrawn != 0 {
		t.Errorf("Withdrawn = %d, want 0", n.Stats.Withdrawn)
	}
}

// TestCanceledRequestNotPooled withdraws a busy-deferred transfer and
// asserts its record is not recycled while the MAC backlog still
// references it (the entry is skipped lazily, by state): pooling it then
// would let the stale queue entry transmit a recycled record's new
// message. Once the MAC drops the entry, the record returns to the pool.
func TestCanceledRequestNotPooled(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, Params{})
	var tok Token
	var withdrawn *request
	canceled := false
	eng.Schedule(0, func() {
		// Occupies the channel for MsgCycles; the second send defers.
		n.SendAsync(Msg{Src: 0, Addr: 1, Val: 1}, nil, func(bool) {})
	})
	eng.Schedule(1, func() {
		n.SendAsync(Msg{Src: 1, Addr: 2, Val: 2}, &tok, func(committed bool) {
			canceled = !committed
		})
		withdrawn = tok.req
	})
	eng.Schedule(2, func() {
		if !tok.Cancel() {
			t.Error("Cancel of a deferred transfer failed")
		}
	})
	eng.Schedule(3, func() {
		// Delivered at cycle 2, still queued behind the busy channel.
		if !canceled {
			t.Error("withdrawal not delivered by cycle 3")
		}
		if slices.Contains(freeRecords(&n.reqs), withdrawn) {
			t.Error("withdrawn record pooled while the MAC backlog still holds it")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !canceled {
		t.Fatal("deferred transfer was not withdrawn")
	}
	if n.Stats.Withdrawn != 1 || n.Stats.Messages != 1 {
		t.Errorf("Withdrawn, Messages = %d, %d, want 1, 1", n.Stats.Withdrawn, n.Stats.Messages)
	}
	// The busy end dropped the stale entry, so both records are pooled.
	if free := freeRecords(&n.reqs); len(free) != 2 || !slices.Contains(free, withdrawn) {
		t.Errorf("freelist holds %d records, want 2 including the withdrawn one", len(free))
	}
}

// TestSendAsyncAllocFree pins the steady-state continuation send path at
// zero heap allocations per message: the request record, the commit event
// and the completion delivery are all pooled, and the MAC's slot slices and
// arbitration continuations recycle. It counts mallocs exactly (GC off,
// same goroutine) across a long message chain after a warm-up chain has
// populated every pool and grown every map.
func TestSendAsyncAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, Params{})
	left := 0
	var issue func(bool)
	issue = func(bool) {
		if left == 0 {
			return
		}
		left--
		n.SendAsync(Msg{Src: 1, Addr: 3, Val: 9}, nil, issue)
	}
	start := func() { issue(true) }
	run := func(k int) {
		left = k
		eng.Schedule(0, start)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const msgs = 20000
	run(msgs) // warm up pools, maps, queue storage
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(msgs)
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("steady-state SendAsync allocated %d objects over %d messages, want 0", d, msgs)
	}
}

// deferBurst drives rounds of busy-channel bursts: node 0 takes the
// channel, and one cycle later every other node sends while it is busy,
// so all of them queue behind it and are released one per busy end. The
// next round starts when every send of the round has completed.
type deferBurst struct {
	eng         *sim.Engine
	n           *Network
	nodes       int
	rounds      int
	outstanding int

	startFn func()
	burstFn func()
	doneFn  func(bool)
}

func newDeferBurst(eng *sim.Engine, n *Network, nodes int) *deferBurst {
	b := &deferBurst{eng: eng, n: n, nodes: nodes}
	b.startFn, b.burstFn, b.doneFn = b.start, b.burst, b.done
	return b
}

func (b *deferBurst) start() {
	b.outstanding = b.nodes
	b.n.SendAsync(Msg{Src: 0, Addr: 1}, nil, b.doneFn)
	b.eng.Schedule(1, b.burstFn)
}

func (b *deferBurst) burst() {
	for src := 1; src < b.nodes; src++ {
		b.n.SendAsync(Msg{Src: src, Addr: uint32(src)}, nil, b.doneFn)
	}
}

func (b *deferBurst) done(bool) {
	b.outstanding--
	if b.outstanding == 0 && b.rounds > 0 {
		b.rounds--
		b.eng.Schedule(1, b.startFn)
	}
}

func (b *deferBurst) run(t *testing.T, rounds int) {
	t.Helper()
	b.rounds = rounds - 1
	b.eng.Schedule(0, b.startFn)
	if err := b.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredSendsAllocFree pins the busy-deferral path at zero heap
// allocations: a burst of sends that find the channel busy queues in the
// backoff MAC's FIFO and is released one per busy end, and the queue's
// array is reused from burst to burst.
func TestDeferredSendsAllocFree(t *testing.T) {
	const nodes, rounds = 64, 50
	eng := sim.NewEngine(1)
	n := New(eng, nodes, Params{})
	b := newDeferBurst(eng, n, nodes)
	run := func() { b.run(t, rounds) }
	for range 4 {
		run() // warm up pools, slot lists and queue storage
	}
	if n.Stats.Messages != 4*nodes*rounds {
		t.Fatalf("committed %d messages, want %d", n.Stats.Messages, 4*nodes*rounds)
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("steady-state deferred bursts allocated %v objects per %d sends, want 0", allocs, nodes*rounds)
	}
}

// TestTokenBurstsAllocFree pins the token MAC's steady state at zero heap
// allocations: its scan, token-arrival and regeneration events recycle,
// and each node's queue pops by a head index and reuses its array.
func TestTokenBurstsAllocFree(t *testing.T) {
	const nodes, rounds = 64, 50
	eng := sim.NewEngine(1)
	n := New(eng, nodes, tokenParams())
	b := newDeferBurst(eng, n, nodes)
	run := func() { b.run(t, rounds) }
	for range 4 {
		run() // warm up pools and queue storage
	}
	if n.Stats.Messages != 4*nodes*rounds {
		t.Fatalf("committed %d messages, want %d", n.Stats.Messages, 4*nodes*rounds)
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("steady-state token bursts allocated %v objects per %d sends, want 0", allocs, nodes*rounds)
	}
}

// switchBurst drives rounds that cross the adaptive MAC both ways: every
// node sends at once (a collision storm that hands the backlog to the
// token MAC), then node 0 alone sends a spaced run (a drained ring that
// hands it back to backoff).
type switchBurst struct {
	eng              *sim.Engine
	n                *Network
	nodes, rounds    int
	outstanding, run int

	burstFn, sparseFn func()
	burstDoneFn       func(bool)
	sparseDoneFn      func(bool)
}

func newSwitchBurst(eng *sim.Engine, n *Network, nodes int) *switchBurst {
	b := &switchBurst{eng: eng, n: n, nodes: nodes}
	b.burstFn, b.sparseFn = b.burst, b.sparse
	b.burstDoneFn, b.sparseDoneFn = b.burstDone, b.sparseDone
	return b
}

func (b *switchBurst) burst() {
	b.outstanding = b.nodes
	for src := 0; src < b.nodes; src++ {
		b.n.SendAsync(Msg{Src: src, Addr: uint32(src)}, nil, b.burstDoneFn)
	}
}

func (b *switchBurst) burstDone(bool) {
	if b.outstanding--; b.outstanding == 0 {
		b.run = 40
		b.eng.Schedule(1, b.sparseFn)
	}
}

func (b *switchBurst) sparse() { b.n.SendAsync(Msg{Src: 0, Addr: 1}, nil, b.sparseDoneFn) }

func (b *switchBurst) sparseDone(bool) {
	if b.run--; b.run > 0 {
		b.eng.Schedule(20, b.sparseFn)
		return
	}
	if b.rounds > 0 {
		b.rounds--
		b.eng.Schedule(1, b.burstFn)
	}
}

func (b *switchBurst) runRounds(t *testing.T, rounds int) {
	t.Helper()
	b.rounds = rounds - 1
	b.eng.Schedule(0, b.burstFn)
	if err := b.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveBurstsAllocFree: rounds that switch the adaptive MAC to
// token mode and back allocate nothing once warm: the drained backlog
// moves through reused arrays, and stale token events recycle like live
// ones.
func TestAdaptiveBurstsAllocFree(t *testing.T) {
	const nodes, rounds, warm = 64, 10, 40
	eng := sim.NewEngine(1)
	n := New(eng, nodes, adaptiveTestParams())
	b := newSwitchBurst(eng, n, nodes)
	run := func() { b.runRounds(t, rounds) }
	for range warm {
		// Random backoff sets new high-water marks for pending slots and
		// their request arrays over the first twenty or so runs.
		run()
	}
	if want := uint64(warm * rounds * (nodes + 40)); n.Stats.Messages != want {
		t.Fatalf("committed %d messages, want %d", n.Stats.Messages, want)
	}
	if s := n.MACCounters(); s.ModeSwitches < 2*warm*rounds {
		t.Fatalf("%d mode switches over %d rounds, want each round to cross both ways", s.ModeSwitches, warm*rounds)
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("steady-state adaptive rounds allocated %v objects per %d sends, want 0", allocs, rounds*(nodes+40))
	}
}
