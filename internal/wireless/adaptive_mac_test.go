package wireless

import (
	"fmt"
	"testing"

	"wisync/internal/sim"
)

// adaptiveTestParams shrinks the decision window so the synthetic
// schedules below cross switch boundaries quickly.
func adaptiveTestParams() Params {
	p := DefaultParams()
	p.MAC = MACAdaptive
	p.AdaptiveWindow = 16
	p.AdaptiveCollisionRate = 0.1
	return p
}

// TestAdaptiveMACSwitchesUnderBurstSchedule drives the switcher through a
// synthetic two-phase schedule: synchronized 32-node bursts (collision
// storms that a random-access MAC resolves expensively) followed by a
// sparse single-sender phase (where token rotation is pure overhead). The
// MAC must move to token during the storm, return to backoff in the sparse
// phase, and not flap within either sustained regime (hysteresis).
func TestAdaptiveMACSwitchesUnderBurstSchedule(t *testing.T) {
	eng := sim.NewEngine(11)
	const nodes = 32
	const rounds = 8
	const roundGap = sim.Time(400)
	n := New(eng, nodes, adaptiveTestParams())
	am := n.mac.(*adaptiveMAC)

	// Record the active protocol at every commit.
	var modes []MACKind
	n.Subscribe(func(Msg, sim.Time) { modes = append(modes, am.Mode()) })

	for c := 0; c < nodes; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			// Phase 1: every node transmits at the same cycle each round.
			repeat(rounds, func(r int, next func()) {
				sleepUntil(eng, sim.Time(r)*roundGap, func() { sendThen(n, Msg{Src: c}, next) })
			}, func() {
				// Phase 2: only node 0 keeps sending, back to back.
				if c != 0 {
					done()
					return
				}
				sleepUntil(eng, sim.Time(rounds)*roundGap, func() {
					repeat(48, func(_ int, next func()) { sendThen(n, Msg{Src: c}, next) }, done)
				})
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	mc := n.MACCounters()
	if mc.Grants != nodes*rounds+48 {
		t.Fatalf("Grants = %d, want %d", mc.Grants, nodes*rounds+48)
	}
	if mc.Collisions == 0 {
		t.Error("no collisions recorded: the storm phase never exercised backoff")
	}
	if mc.TokenPasses == 0 {
		t.Error("no token passes recorded: the MAC never entered token mode")
	}
	if mc.ModeSwitches < 2 {
		t.Errorf("ModeSwitches = %d, want >= 2 (storm -> token, sparse -> backoff)", mc.ModeSwitches)
	}
	if mc.ModeSwitches > 6 {
		t.Errorf("ModeSwitches = %d: protocol is flapping, hysteresis broken", mc.ModeSwitches)
	}
	sawToken := false
	for _, m := range modes[:nodes*rounds] {
		if m == MACToken {
			sawToken = true
			break
		}
	}
	if !sawToken {
		t.Error("token mode never active during the storm phase")
	}
	if final := modes[len(modes)-1]; final != MACBackoff {
		t.Errorf("final mode = %v, want backoff after the sparse phase", final)
	}
	if am.Mode() != MACBackoff {
		t.Errorf("resting mode = %v, want backoff", am.Mode())
	}
}

// TestAdaptiveMACHoldsTokenForThreeSenders pins the token-mode return
// threshold: a window leaves token mode only when at most one sender
// queued behind each grant. A storm puts the MAC in token mode; then three
// closed-loop senders each keep one message in flight, so two queue behind
// every grant, and the MAC must stay in token mode. A threshold of two
// would return to backoff, where the three collide, and the MAC would
// flap between the protocols.
func TestAdaptiveMACHoldsTokenForThreeSenders(t *testing.T) {
	eng := sim.NewEngine(11)
	const nodes, senders, msgs = 32, 3, 200
	const phase2 = sim.Time(2000)
	n := New(eng, nodes, adaptiveTestParams())
	am := n.mac.(*adaptiveMAC)
	var stormSwitches uint64
	for c := 0; c < nodes; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			// Phase 1: every node transmits at cycle 0.
			sendThen(n, Msg{Src: c}, func() {
				if c >= senders {
					done()
					return
				}
				// Phase 2: three nodes send back to back.
				sleepUntil(eng, phase2, func() {
					if c == 0 {
						if n.Stats.Messages != nodes {
							t.Errorf("storm not drained by cycle %d: %d of %d messages", phase2, n.Stats.Messages, nodes)
						}
						if am.Mode() != MACToken {
							t.Errorf("mode after the storm = %v, want token", am.Mode())
						}
						stormSwitches = am.switches
					}
					repeat(msgs, func(_ int, next func()) { sendThen(n, Msg{Src: c}, next) }, done)
				})
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != nodes+senders*msgs {
		t.Fatalf("Messages = %d, want %d", n.Stats.Messages, nodes+senders*msgs)
	}
	if d := am.switches - stormSwitches; d != 0 {
		t.Errorf("%d mode switches under three senders, want 0", d)
	}
	if am.Mode() != MACToken {
		t.Errorf("final mode = %v, want token", am.Mode())
	}
}

// TestAdaptiveMACStaysInBackoffWhenUncontended: sparse traffic must never
// trigger a switch — the collision rate stays at zero.
func TestAdaptiveMACStaysInBackoffWhenUncontended(t *testing.T) {
	eng := sim.NewEngine(2)
	// Default thresholds: only a sustained collision rate (>25% over 32
	// grants) justifies the token; coincidental same-slot arrivals from
	// drifting periodic senders must not.
	p := DefaultParams()
	p.MAC = MACAdaptive
	n := New(eng, 16, p)
	for c := 0; c < 4; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			// Staggered starts: sparse means no simultaneous arrivals.
			eng.SleepThen(sim.Time(1+17*c), func() {
				repeat(20, func(_ int, next func()) {
					sendThen(n, Msg{Src: c}, func() { eng.SleepThen(sim.Time(50+13*c), next) })
				}, done)
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	mc := n.MACCounters()
	if mc.ModeSwitches != 0 {
		t.Errorf("ModeSwitches = %d under sparse traffic, want 0", mc.ModeSwitches)
	}
	if mc.TokenPasses != 0 {
		t.Errorf("TokenPasses = %d, want 0 (never left backoff)", mc.TokenPasses)
	}
	if n.Stats.Messages != 80 {
		t.Errorf("Messages = %d, want 80", n.Stats.Messages)
	}
}

// TestAdaptiveMACDeliversEverythingAcrossSwitches hammers the switcher
// with alternating storm and quiet phases and checks nothing is lost or
// reordered per sender across backlog migrations.
func TestAdaptiveMACDeliversEverythingAcrossSwitches(t *testing.T) {
	eng := sim.NewEngine(17)
	const nodes = 24
	const phases = 6
	n := New(eng, nodes, adaptiveTestParams())
	perSender := make([][]uint64, nodes)
	n.Subscribe(func(m Msg, _ sim.Time) {
		perSender[m.Src] = append(perSender[m.Src], m.Val)
	})
	var sent int
	for c := 0; c < nodes; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			seq := uint64(0)
			repeat(phases, func(ph int, nextPhase func()) {
				sleepUntil(eng, sim.Time(ph)*700, func() {
					// Even phases: synchronized burst from everyone. Odd
					// phases: only low nodes trickle.
					msgs := 2
					if ph%2 == 1 {
						if c >= 4 {
							nextPhase()
							return
						}
						msgs = 6
					}
					repeat(msgs, func(_ int, next func()) {
						n.SendAsync(Msg{Src: c, Val: seq}, nil, func(ok bool) {
							if !ok {
								t.Errorf("node %d seq %d failed", c, seq)
							}
							seq++
							sent++
							if ph%2 == 1 {
								eng.SleepThen(40, next)
								return
							}
							next()
						})
					}, nextPhase)
				})
			}, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var delivered int
	for c, vals := range perSender {
		for i, v := range vals {
			if v != uint64(i) {
				t.Fatalf("node %d commit order %v not FIFO across mode switches", c, vals)
			}
		}
		delivered += len(vals)
	}
	if delivered != sent {
		t.Errorf("delivered %d of %d messages", delivered, sent)
	}
}

// TestAdaptiveMACDeterministicReplay: mode switches depend only on
// simulated state, so a replay is bit-identical.
func TestAdaptiveMACDeterministicReplay(t *testing.T) {
	runOnce := func() ([]int, MACStats) {
		eng := sim.NewEngine(123)
		n := New(eng, 16, adaptiveTestParams())
		var order []int
		n.Subscribe(func(m Msg, _ sim.Time) { order = append(order, m.Src) })
		for c := 0; c < 16; c++ {
			goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
				repeat(8, func(_ int, next func()) {
					sendThen(n, Msg{Src: c}, func() {
						eng.SleepThen(sim.Time(eng.Rand().Intn(7)), next)
					})
				}, done)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return order, n.MACCounters()
	}
	a, sa := runOnce()
	b, sb := runOnce()
	if sa != sb {
		t.Fatalf("MAC counters differ across replays: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("adaptive commit order not deterministic")
		}
	}
}
