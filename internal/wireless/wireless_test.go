package wireless

import (
	"fmt"
	"testing"

	"wisync/internal/sim"
)

// goTask starts body as a task; body calls done to finish it.
func goTask(eng *sim.Engine, name string, body func(done func())) {
	eng.GoTask(name, func(tk *sim.Task) { body(tk.Finish) })
}

// repeat runs body for i = 0..n-1 in sequence, each call continuing with
// next, then runs done.
func repeat(n int, body func(i int, next func()), done func()) {
	i := 0
	var step func()
	step = func() {
		if i == n {
			done()
			return
		}
		i++
		body(i-1, step)
	}
	step()
}

// sleepUntil runs then at absolute cycle at, or now if at has passed.
func sleepUntil(eng *sim.Engine, at sim.Time, then func()) {
	if at > eng.Now() {
		eng.SleepThen(at-eng.Now(), then)
		return
	}
	then()
}

// sendThen sends m and runs then at its completion, ignoring the outcome.
func sendThen(n *Network, m Msg, then func()) {
	n.SendAsync(m, nil, func(bool) { then() })
}

func TestSingleSendTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	var commits []sim.Time
	n.Subscribe(func(m Msg, at sim.Time) { commits = append(commits, at) })
	goTask(eng, "tx", func(done func()) {
		n.SendAsync(Msg{Src: 0, Addr: 1, Val: 42}, nil, func(ok bool) {
			if !ok {
				t.Error("Send reported failure")
			}
			if eng.Now() != 5 {
				t.Errorf("sender resumed at %d, want 5", eng.Now())
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(commits) != 1 || commits[0] != 5 {
		t.Errorf("commits = %v, want [5]", commits)
	}
	if n.Stats.Messages != 1 || n.Stats.BusyCycles != 5 {
		t.Errorf("stats = %+v", n.Stats)
	}
}

func TestBulkTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	goTask(eng, "tx", func(done func()) {
		sendThen(n, Msg{Src: 0, Kind: KindBulk}, func() {
			if eng.Now() != 15 {
				t.Errorf("bulk commit at %d, want 15", eng.Now())
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBusyChannelWaits(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	var t2 sim.Time
	goTask(eng, "tx1", func(done func()) { sendThen(n, Msg{Src: 0}, done) })
	goTask(eng, "tx2", func(done func()) {
		eng.SleepThen(2, func() { // channel busy with tx1 until cycle 5
			sendThen(n, Msg{Src: 1}, func() {
				t2 = eng.Now()
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// tx2 waits for cycle 5, transmits 5..10.
	if t2 != 10 {
		t.Errorf("tx2 committed at %d, want 10", t2)
	}
	if n.Stats.Collisions != 0 {
		t.Errorf("Collisions = %d, want 0", n.Stats.Collisions)
	}
}

func TestSimultaneousSendsCollide(t *testing.T) {
	eng := sim.NewEngine(7)
	n := New(eng, 4, DefaultParams())
	var commits int
	n.Subscribe(func(Msg, sim.Time) { commits++ })
	for i := 0; i < 2; i++ {
		goTask(eng, fmt.Sprintf("tx%d", i), func(done func()) {
			n.SendAsync(Msg{Src: i}, nil, func(ok bool) {
				if !ok {
					t.Errorf("tx%d failed", i)
				}
				done()
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if commits != 2 {
		t.Errorf("commits = %d, want 2", commits)
	}
	if n.Stats.Collisions < 1 {
		t.Errorf("Collisions = %d, want >= 1", n.Stats.Collisions)
	}
}

func TestTotalOrderAndAllDelivered(t *testing.T) {
	// Many nodes hammer the channel; every message must commit exactly
	// once, commits must not overlap, and all subscribers see the same
	// order.
	eng := sim.NewEngine(3)
	n := New(eng, 64, DefaultParams())
	var order1, order2 []int
	n.Subscribe(func(m Msg, at sim.Time) { order1 = append(order1, m.Src*1000+int(m.Val)) })
	n.Subscribe(func(m Msg, at sim.Time) { order2 = append(order2, m.Src*1000+int(m.Val)) })
	var lastCommit sim.Time
	n.Subscribe(func(m Msg, at sim.Time) {
		if at < lastCommit+5 && lastCommit != 0 {
			t.Errorf("commits overlap: %d after %d", at, lastCommit)
		}
		lastCommit = at
	})
	const msgsPerNode = 5
	for c := 0; c < 64; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			repeat(msgsPerNode, func(i int, next func()) {
				n.SendAsync(Msg{Src: c, Val: uint64(i)}, nil, func(ok bool) {
					if !ok {
						t.Errorf("node %d msg %d failed", c, i)
					}
					eng.SleepThen(sim.Time(eng.Rand().Intn(30)), next)
				})
			}, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order1) != 64*msgsPerNode {
		t.Fatalf("delivered %d messages, want %d", len(order1), 64*msgsPerNode)
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatal("subscribers saw different orders")
		}
	}
	if n.Stats.Messages != 64*msgsPerNode {
		t.Errorf("Messages = %d", n.Stats.Messages)
	}
}

func TestPerSenderFIFO(t *testing.T) {
	// A single node's messages commit in issue order (the MAC does not
	// reorder), even under contention from others.
	eng := sim.NewEngine(11)
	n := New(eng, 8, DefaultParams())
	var vals []uint64
	n.Subscribe(func(m Msg, _ sim.Time) {
		if m.Src == 0 {
			vals = append(vals, m.Val)
		}
	})
	goTask(eng, "n0", func(done func()) {
		repeat(10, func(i int, next func()) { sendThen(n, Msg{Src: 0, Val: uint64(i)}, next) }, done)
	})
	for c := 1; c < 8; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			repeat(5, func(_ int, next func()) { sendThen(n, Msg{Src: c}, next) }, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != uint64(i) {
			t.Fatalf("node 0 commit order %v not FIFO", vals)
		}
	}
}

func TestCancelWithdrawsPending(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	var commits int
	n.Subscribe(func(Msg, sim.Time) { commits++ })
	var tok Token
	goTask(eng, "blocker", func(done func()) {
		sendThen(n, Msg{Src: 0}, done) // occupies channel 0..5
	})
	goTask(eng, "victim", func(done func()) {
		eng.SleepThen(1, func() {
			n.SendAsync(Msg{Src: 1}, &tok, func(ok bool) {
				if ok {
					t.Error("canceled Send reported commit")
				}
				if eng.Now() != 3 {
					t.Errorf("victim resumed at %d, want 3", eng.Now())
				}
				done()
			})
		})
	})
	goTask(eng, "canceler", func(done func()) {
		eng.SleepThen(3, func() {
			if !tok.Cancel() {
				t.Error("Cancel returned false for pending request")
			}
			if tok.Cancel() {
				t.Error("second Cancel returned true")
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if commits != 1 {
		t.Errorf("commits = %d, want 1 (victim withdrew)", commits)
	}
	if n.Stats.Withdrawn != 1 {
		t.Errorf("Withdrawn = %d, want 1", n.Stats.Withdrawn)
	}
}

func TestCancelTooLateFails(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	var tok Token
	goTask(eng, "tx", func(done func()) {
		n.SendAsync(Msg{Src: 0}, &tok, func(ok bool) {
			if !ok {
				t.Error("Send failed")
			}
			done()
		})
	})
	goTask(eng, "late", func(done func()) {
		eng.SleepThen(2, func() { // transmission already in flight
			if tok.Cancel() {
				t.Error("Cancel succeeded mid-transmission")
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialBackoffWindowGrows(t *testing.T) {
	// With many simultaneous senders, some nodes must reach backoff
	// exponents > 1, and all messages still get through.
	eng := sim.NewEngine(5)
	p := DefaultParams()
	p.Backoff = BackoffPersistent
	n := New(eng, 32, p)
	maxExp := 0
	n.Subscribe(func(Msg, sim.Time) {
		for _, b := range n.mac.(*backoffMAC).backoff {
			if b > maxExp {
				maxExp = b
			}
		}
	})
	for c := 0; c < 32; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) { sendThen(n, Msg{Src: c}, done) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != 32 {
		t.Errorf("Messages = %d, want 32", n.Stats.Messages)
	}
	if maxExp < 2 {
		t.Errorf("max backoff exponent = %d, want >= 2 under 32-way burst", maxExp)
	}
	if n.Stats.Collisions == 0 {
		t.Error("no collisions under 32-way simultaneous burst")
	}
}

func TestBackoffExponentCapped(t *testing.T) {
	// Note: the cap must comfortably exceed the burst size or contention
	// can never resolve (with w nodes contending inside a window smaller
	// than w, every slot collides — a real property of the protocol).
	eng := sim.NewEngine(5)
	p := DefaultParams()
	p.Backoff = BackoffPersistent
	p.MaxBackoffExp = 3
	n := New(eng, 4, p)
	for c := 0; c < 4; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			repeat(3, func(_ int, next func()) { sendThen(n, Msg{Src: c}, next) }, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != 12 {
		t.Errorf("Messages = %d, want 12", n.Stats.Messages)
	}
	for c, b := range n.mac.(*backoffMAC).backoff {
		if b > 3 {
			t.Fatalf("node %d backoff exponent %d exceeds cap 3", c, b)
		}
	}
}

func TestConstantBackoffAblation(t *testing.T) {
	eng := sim.NewEngine(5)
	p := DefaultParams()
	p.ConstantBackoffWindow = 4
	n := New(eng, 16, p)
	for c := 0; c < 16; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) { sendThen(n, Msg{Src: c}, done) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != 16 {
		t.Errorf("Messages = %d, want 16", n.Stats.Messages)
	}
}

func TestUtilizationAndLatencyStats(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	goTask(eng, "tx", func(done func()) {
		sendThen(n, Msg{Src: 0}, func() {
			eng.SleepThen(15, done) // idle 5..20
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if u := n.Stats.Utilization(20); u != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", u)
	}
	if l := n.Stats.MeanLatency(); l != 5 {
		t.Errorf("MeanLatency = %v, want 5", l)
	}
}

func TestSaturatedThroughputBound(t *testing.T) {
	// Under permanent demand, throughput cannot exceed 1 message per
	// MsgCycles, and backoff should keep goodput reasonable (> 50% of
	// channel capacity).
	eng := sim.NewEngine(9)
	n := New(eng, 64, DefaultParams())
	stop := sim.Time(20000)
	for c := 0; c < 64; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			var send func()
			send = func() {
				if eng.Now() >= stop {
					done()
					return
				}
				sendThen(n, Msg{Src: c}, send)
			}
			send()
		})
	}
	eng.RunUntil(stop)
	eng.Shutdown()
	maxMsgs := uint64(stop / 5)
	if n.Stats.Messages > maxMsgs {
		t.Errorf("Messages = %d exceeds channel capacity %d", n.Stats.Messages, maxMsgs)
	}
	if n.Stats.Messages < maxMsgs/2 {
		t.Errorf("Messages = %d, less than half of capacity %d (backoff too aggressive)", n.Stats.Messages, maxMsgs)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() []int {
		eng := sim.NewEngine(123)
		n := New(eng, 16, DefaultParams())
		var order []int
		n.Subscribe(func(m Msg, _ sim.Time) { order = append(order, m.Src) })
		for c := 0; c < 16; c++ {
			goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
				repeat(4, func(_ int, next func()) {
					sendThen(n, Msg{Src: c}, func() {
						eng.SleepThen(sim.Time(eng.Rand().Intn(7)), next)
					})
				}, done)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("wireless commit order not deterministic")
		}
	}
}

// TestBackoffSlotTableSpills: the backoff MAC's cycle table only finds
// slots; it decides nothing. A storm run with a four-entry table, where
// most pending slots share an entry and are found by the scan, commits
// every message at the same cycle, in the same order, as with the table
// sized past the slot horizon.
func TestBackoffSlotTableSpills(t *testing.T) {
	run := func(table int) ([]string, int) {
		eng := sim.NewEngine(3)
		n := New(eng, 64, Params{})
		m := n.mac.(*backoffMAC)
		if table > 0 {
			m.byCycle = make([]*arbCont, table)
			m.cycleMask = sim.Time(table - 1)
		}
		var log []string
		spilled := 0
		n.Subscribe(func(msg Msg, at sim.Time) {
			log = append(log, fmt.Sprintf("%d/%d@%d", msg.Src, msg.Val, at))
			spilled = max(spilled, m.spilled)
		})
		for src := 0; src < 64; src++ {
			sent := uint64(0)
			var send func(bool)
			send = func(bool) {
				if sent == 20 {
					return
				}
				sent++
				n.SendAsync(Msg{Src: src, Addr: uint32(src), Val: sent}, nil, send)
			}
			eng.Schedule(sim.Time(src%5), func() { send(true) })
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return log, spilled
	}
	want, spilled := run(0)
	if spilled != 0 {
		t.Errorf("full-size table spilled %d slots", spilled)
	}
	got, spilled := run(4)
	if spilled == 0 {
		t.Fatal("four-entry table never spilled; the scan path is not exercised")
	}
	if len(want) != 64*20 {
		t.Fatalf("committed %d messages, want %d", len(want), 64*20)
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("commit %d: got %v, want %s", i, got[min(i, len(got)-1)], want[i])
		}
	}
}
