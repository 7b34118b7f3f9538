package wireless

import (
	"fmt"
	"testing"

	"wisync/internal/sim"
)

// TestAdaptiveBackoffSharedEstimate exercises the Section 5.3 reactive
// policy: after a burst, the shared exponent is already raised, so new
// messages back off appropriately from their first collision; after quiet
// successes it decays again.
func TestAdaptiveBackoffSharedEstimate(t *testing.T) {
	eng := sim.NewEngine(5)
	p := DefaultParams()
	p.Backoff = BackoffAdaptive
	n := New(eng, 32, p)
	for c := 0; c < 32; c++ {
		goTask(eng, fmt.Sprintf("n%d", c), func(done func()) {
			repeat(3, func(_ int, next func()) {
				n.SendAsync(Msg{Src: c}, nil, func(ok bool) {
					if !ok {
						t.Errorf("node %d send failed", c)
					}
					eng.SleepThen(sim.Time(eng.Rand().Intn(20)), next)
				})
			}, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != 96 {
		t.Errorf("Messages = %d, want 96", n.Stats.Messages)
	}
	// After the storm drains with successes, the shared estimate decays.
	if exp := n.mac.(*backoffMAC).sharedExp; exp > p.MaxBackoffExp {
		t.Errorf("sharedExp = %d beyond cap %d", exp, p.MaxBackoffExp)
	}
}

// TestAdaptiveNoWorseThanPersistentUnderBurst compares total drain time of
// a synchronized 32-message burst under the two policies; adaptive must be
// competitive (its whole point).
func TestAdaptiveNoWorseThanPersistentUnderBurst(t *testing.T) {
	drain := func(pol BackoffPolicy) sim.Time {
		eng := sim.NewEngine(7)
		p := DefaultParams()
		p.Backoff = pol
		n := New(eng, 32, p)
		for c := 0; c < 32; c++ {
			goTask(eng, fmt.Sprintf("n%d", c), func(done func()) { sendThen(n, Msg{Src: c}, done) })
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	pers, adap := drain(BackoffPersistent), drain(BackoffAdaptive)
	t.Logf("32-burst drain: persistent %d, adaptive %d cycles", pers, adap)
	if adap > 2*pers {
		t.Errorf("adaptive (%d) much worse than persistent (%d)", adap, pers)
	}
}
