package wireless

import (
	"fmt"
	"testing"

	"wisync/internal/sim"
)

func tokenParams() Params {
	p := DefaultParams()
	p.MAC = MACToken
	return p
}

// TestTokenNeverCollides is the token MAC's defining property: random
// concurrent traffic from every node, zero collisions, every message
// delivered in a total order.
func TestTokenNeverCollides(t *testing.T) {
	eng := sim.NewEngine(3)
	n := New(eng, 64, tokenParams())
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
	if n.Stats.Collisions != 0 {
		t.Errorf("Stats.Collisions = %d, want 0 under token passing", n.Stats.Collisions)
	}
	mc := n.MACCounters()
	if mc.Collisions != 0 {
		t.Errorf("MACStats.Collisions = %d, want 0", mc.Collisions)
	}
	if mc.Grants != 64*msgsPerNode {
		t.Errorf("MACStats.Grants = %d, want %d", mc.Grants, 64*msgsPerNode)
	}
	if mc.TokenPasses == 0 || mc.TokenWaitCycles == 0 {
		t.Errorf("token accounting empty: %+v", mc)
	}
}

// TestTokenFairnessUnderSaturation: with every node permanently backlogged,
// round-robin token rotation serves the ring evenly — per-node grant counts
// may differ by at most one rotation.
func TestTokenFairnessUnderSaturation(t *testing.T) {
	eng := sim.NewEngine(9)
	const nodes = 32
	n := New(eng, nodes, tokenParams())
	grants := make([]int, nodes)
	n.Subscribe(func(m Msg, _ sim.Time) { grants[m.Src]++ })
	stop := sim.Time(20000)
	for c := 0; c < nodes; c++ {
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
	min, max := grants[0], grants[0]
	for _, g := range grants[1:] {
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if min == 0 {
		t.Fatalf("a node was starved: grants = %v", grants)
	}
	if max-min > 1 {
		t.Errorf("unfair service: per-node grants range [%d,%d], want spread <= 1 (%v)", min, max, grants)
	}
	if n.Stats.Collisions != 0 {
		t.Errorf("Collisions = %d under token passing", n.Stats.Collisions)
	}
	// Saturated goodput: one hop + one message per grant, so the channel
	// must carry at least stop/(MsgCycles+1) messages (minus ramp-up).
	minMsgs := uint64(stop)/uint64(n.p.MsgCycles+n.p.TokenHopCycles) - uint64(nodes)
	if n.Stats.Messages < minMsgs {
		t.Errorf("Messages = %d, want >= %d at saturation", n.Stats.Messages, minMsgs)
	}
}

// TestTokenLoneSenderPaysRotation pins the protocol's cost model: after
// its first message, a lone sender pays a full ring rotation per message.
func TestTokenLoneSenderPaysRotation(t *testing.T) {
	eng := sim.NewEngine(1)
	const nodes = 16
	n := New(eng, nodes, tokenParams())
	var commits []sim.Time
	n.Subscribe(func(_ Msg, at sim.Time) { commits = append(commits, at) })
	goTask(eng, "n0", func(done func()) {
		repeat(3, func(_ int, next func()) { sendThen(n, Msg{Src: 0}, next) }, done)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// First grant: one hop from the initial token position. Subsequent
	// messages: full rotation (16 hops) + 5-cycle message.
	want := []sim.Time{6, 27, 48}
	if len(commits) != len(want) {
		t.Fatalf("commits = %v, want %v", commits, want)
	}
	for i := range want {
		if commits[i] != want[i] {
			t.Errorf("commit %d at %d, want %d", i, commits[i], want[i])
		}
	}
}

// TestTokenCancelWhileQueued: a withdrawal while waiting for the token is
// honored and does not derail the rotation.
func TestTokenCancelWhileQueued(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 8, tokenParams())
	var commits int
	n.Subscribe(func(Msg, sim.Time) { commits++ })
	var tok Token
	goTask(eng, "blocker", func(done func()) {
		sendThen(n, Msg{Src: 0}, done) // wins the first grant
	})
	goTask(eng, "victim", func(done func()) {
		eng.SleepThen(1, func() {
			n.SendAsync(Msg{Src: 1}, &tok, func(ok bool) {
				if ok {
					t.Error("canceled Send reported commit")
				}
				done()
			})
		})
	})
	goTask(eng, "bystander", func(done func()) {
		eng.SleepThen(1, func() {
			n.SendAsync(Msg{Src: 2}, nil, func(ok bool) {
				if !ok {
					t.Error("bystander send failed")
				}
				done()
			})
		})
	})
	goTask(eng, "canceler", func(done func()) {
		eng.SleepThen(3, func() {
			if !tok.Cancel() {
				t.Error("Cancel returned false for a token-queued request")
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if commits != 2 {
		t.Errorf("commits = %d, want 2 (victim withdrew)", commits)
	}
	if n.Stats.Withdrawn != 1 {
		t.Errorf("Withdrawn = %d, want 1", n.Stats.Withdrawn)
	}
}

// TestTokenDeterministicReplay: token arbitration uses no randomness at
// all, so two runs are trivially identical — but the commit order must
// also be identical across runs with the engine's task scheduling in play,
// like the backoff MAC's replay guarantee.
func TestTokenDeterministicReplay(t *testing.T) {
	runOnce := func() []int {
		eng := sim.NewEngine(123)
		n := New(eng, 16, tokenParams())
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
			t.Fatal("token commit order not deterministic")
		}
	}
}
