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
	if got := len(n.reqFree); got != 1 {
		t.Errorf("freelist holds %d records after sequential chain, want 1", got)
	}
	if got := n.reqFree[0].epoch; got != msgs {
		t.Errorf("pooled record epoch %d, want %d (one bump per trip)", got, msgs)
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
		if slices.Contains(n.reqFree, withdrawn) {
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
	if got := len(n.reqFree); got != 2 || !slices.Contains(n.reqFree, withdrawn) {
		t.Errorf("freelist holds %d records, want 2 including the withdrawn one", got)
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
