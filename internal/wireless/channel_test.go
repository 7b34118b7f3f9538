package wireless

import (
	"math"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/sim"
)

func lossyParams(ber float64, retries int) Params {
	p := DefaultParams()
	p.Channel = channel.Params{Profile: channel.Uniform, BER: ber, MaxRetries: retries}
	return p
}

// TestRetransmissionRedelivers pins the NACK path: at a BER high enough to
// corrupt some frames, every send still commits (budget permitting), each
// corrupted attempt re-occupies the channel, and the retransmission energy
// is charged separately from first attempts.
func TestRetransmissionRedelivers(t *testing.T) {
	eng := sim.NewEngine(3)
	n := New(eng, 16, lossyParams(1e-3, 50))
	const sends = 200
	var commits int
	n.Subscribe(func(Msg, sim.Time) { commits++ })
	goTask(eng, "tx", func(done func()) {
		repeat(sends, func(i int, next func()) {
			n.SendAsync(Msg{Src: i % 16, Addr: uint32(i)}, nil, func(ok bool) {
				if !ok {
					t.Errorf("send %d failed with a 50-retry budget", i)
				}
				next()
			})
		}, done)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if commits != sends {
		t.Fatalf("%d commits, want %d", commits, sends)
	}
	if n.Energy.Retransmissions == 0 {
		t.Fatal("no retransmissions at BER 1e-3 over 200 frames; test is vacuous")
	}
	if n.Energy.DeliveryFailures != 0 {
		t.Fatalf("%d delivery failures, want 0", n.Energy.DeliveryFailures)
	}
	if n.Energy.RetxPJ <= 0 || n.Energy.TxPJ <= 0 {
		t.Fatalf("energy split TxPJ=%g RetxPJ=%g, want both positive", n.Energy.TxPJ, n.Energy.RetxPJ)
	}
	// Every attempt — first or retry — occupied the full frame duration.
	attempts := sends + int(n.Energy.Retransmissions)
	if want := sim.Time(attempts) * n.p.MsgCycles; n.Stats.BusyCycles != want {
		t.Fatalf("BusyCycles = %d, want %d (%d attempts)", n.Stats.BusyCycles, want, attempts)
	}
	// Stats.Messages counts committed deliveries only.
	if n.Stats.Messages != sends {
		t.Fatalf("Messages = %d, want %d", n.Stats.Messages, sends)
	}
}

// TestRetransmissionExhaustion pins the failure path: a hostile channel
// (every frame corrupts with near certainty) exhausts the budget, Send
// reports committed == false, and no subscriber ever sees the frame.
func TestRetransmissionExhaustion(t *testing.T) {
	eng := sim.NewEngine(1)
	// BER 0.5 corrupts a 77-bit broadcast with probability ~1: survival
	// per attempt is 0.5^(77*15) — effectively zero.
	n := New(eng, 16, lossyParams(0.5, 3))
	var delivered int
	n.Subscribe(func(Msg, sim.Time) { delivered++ })
	goTask(eng, "tx", func(done func()) {
		n.SendAsync(Msg{Src: 0, Addr: 1}, nil, func(ok bool) {
			if ok {
				t.Error("send committed on a channel that corrupts every frame")
			}
			// 1 attempt + 3 retries, 5 cycles each.
			if eng.Now() != 20 {
				t.Errorf("sender resumed at %d, want 20", eng.Now())
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("%d deliveries of a never-committed frame", delivered)
	}
	if n.Energy.DeliveryFailures != 1 || n.Energy.Retransmissions != 3 {
		t.Fatalf("ledger %+v, want 3 retransmissions and 1 failure", n.Energy)
	}
	if n.Stats.Messages != 0 {
		t.Fatalf("Messages = %d, want 0", n.Stats.Messages)
	}
}

// TestEnergyLedgerConservation pins that the per-node ledger and the
// aggregate ledger agree: under contention (collisions), corruption
// (retransmissions) and mixed frame kinds, the sum of per-node charges
// equals TotalPJ.
func TestEnergyLedgerConservation(t *testing.T) {
	eng := sim.NewEngine(11)
	n := New(eng, 8, lossyParams(2e-3, 50))
	for i := 0; i < 8; i++ {
		goTask(eng, "tx", func(done func()) {
			repeat(25, func(j int, next func()) {
				kind := KindStore
				if j%5 == 0 {
					kind = KindBulk
				}
				sendThen(n, Msg{Src: i, Addr: uint32(j), Kind: kind}, next)
			}, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Collisions == 0 {
		t.Fatal("no collisions; conservation test does not cover the collision charge")
	}
	if n.Energy.Retransmissions == 0 {
		t.Fatal("no retransmissions; conservation test does not cover the retry charge")
	}
	var perNode float64
	for _, pj := range n.EnergyPerNode() {
		perNode += pj
	}
	total := n.Energy.TotalPJ()
	if diff := math.Abs(perNode - total); diff > 1e-6*total {
		t.Fatalf("per-node sum %g != ledger total %g", perNode, total)
	}
	if total <= 0 {
		t.Fatal("zero total energy after 200 sends")
	}
}

// TestIdealChannelUnperturbed pins the golden-safety property at the
// wireless level: constructing a Network with the default (ideal) channel
// consumes no extra engine entropy and the ledger's reliability counters
// stay zero, so every pre-channel trace is reproduced exactly.
func TestIdealChannelUnperturbed(t *testing.T) {
	draw := func(p Params) uint64 {
		eng := sim.NewEngine(99)
		New(eng, 8, p)
		return eng.Rand().Uint64()
	}
	// The engine RNG state after construction must match a Network built
	// before the channel model existed: exactly one fork (the MAC rng).
	ref := func() uint64 {
		eng := sim.NewEngine(99)
		eng.Rand().Fork()
		return eng.Rand().Uint64()
	}()
	if got := draw(DefaultParams()); got != ref {
		t.Fatal("ideal channel consumed engine entropy at construction")
	}
	if got := draw(lossyParams(1e-3, 0)); got == ref {
		t.Fatal("lossy channel did not fork its own rng")
	}

	eng := sim.NewEngine(5)
	n := New(eng, 8, DefaultParams())
	goTask(eng, "tx", func(done func()) {
		repeat(50, func(j int, next func()) {
			n.SendAsync(Msg{Src: j % 8}, nil, func(ok bool) {
				if !ok {
					t.Error("ideal-channel send failed")
				}
				next()
			})
		}, done)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Energy.Retransmissions != 0 || n.Energy.DeliveryFailures != 0 {
		t.Fatalf("ideal channel produced reliability events: %+v", n.Energy)
	}
	if n.Energy.TxPJ <= 0 {
		t.Fatal("ideal channel charged no transmission energy; the ledger must run on every config")
	}
}

// TestEnergyStatsString smoke-checks the summary rendering used by the
// CLI # energy lines.
func TestEnergyStatsString(t *testing.T) {
	e := EnergyStats{TxPJ: 1, RetxPJ: 2, CollisionPJ: 3, Retransmissions: 4, DeliveryFailures: 5}
	want := "total=6.0pJ tx=1.0pJ retx=2.0pJ collision=3.0pJ retransmissions=4 failures=5"
	if got := e.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	var sum EnergyStats
	sum.Add(e)
	sum.Add(e)
	if sum.TotalPJ() != 12 || sum.Retransmissions != 8 {
		t.Fatalf("Add: %+v", sum)
	}
}
