// MAC crossover: where does token passing beat carrier-sense backoff on
// the shared wireless channel?
//
// The program drains a synchronized N-message storm (every node transmits
// in the same cycle — the arrival pattern a barrier release generates)
// under four arbitration setups and prints the drain time per message:
//
//   - backoff+fifo: the paper's design — carrier sensing, binary
//     exponential backoff, busy-deferred senders queued FIFO;
//   - backoff+csma: the same collision resolution but pure 1-persistent
//     CSMA (every deferred sender re-contends at busy-end);
//   - token: collision-free round-robin token rotation;
//   - adaptive+csma: the traffic-aware switcher on top of the CSMA
//     channel.
//
// Two regimes bound the design space. Against pure CSMA, the token wins
// from small storm sizes: re-contention collapses into repeated collision
// rounds while the token serializes the storm at one hop per grant. The
// paper's FIFO busy-deferral, however, is already an implicit global
// queue — collisions only happen between same-slot arrivals — so it
// stays ahead of the token everywhere (the rotation latency it avoids
// grows with the ring size), which is why the paper's simple scheme holds
// up and why the adaptive MAC is the interesting protocol only on
// channels without a deferral queue. A lone periodic sender (second
// table) shows the token's worst case: a full ring rotation per message.
package main

import (
	"fmt"

	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// storm starts one message on every node in cycle 0 and returns the cycle
// the last commit lands, plus the channel counters.
func storm(nodes int, p wireless.Params) (sim.Time, wireless.Stats, wireless.MACStats) {
	eng := sim.NewEngine(42)
	n := wireless.New(eng, nodes, p)
	for c := 0; c < nodes; c++ {
		eng.GoTask(fmt.Sprintf("n%d", c), func(t *sim.Task) {
			n.SendAsync(wireless.Msg{Src: c}, nil, func(bool) { t.Finish() })
		})
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return eng.Now(), n.Stats, n.MACCounters()
}

// lone sends msgs messages from node 0 with idle gaps, the token's worst
// case: each message pays a full ring rotation.
func lone(nodes, msgs int, p wireless.Params) sim.Time {
	eng := sim.NewEngine(42)
	n := wireless.New(eng, nodes, p)
	eng.GoTask("n0", func(t *sim.Task) {
		i := 0
		var send func()
		send = func() {
			if i == msgs {
				t.Finish()
				return
			}
			i++
			n.SendAsync(wireless.Msg{Src: 0}, nil, func(bool) { t.Sleep(3, send) })
		}
		send()
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return eng.Now()
}

func setups() []struct {
	name string
	p    wireless.Params
} {
	fifo := wireless.DefaultParams()
	csma := wireless.DefaultParams()
	csma.Defer = wireless.DeferContend
	token := wireless.DefaultParams()
	token.MAC = wireless.MACToken
	adaptive := wireless.DefaultParams()
	adaptive.MAC = wireless.MACAdaptive
	adaptive.Defer = wireless.DeferContend
	adaptive.AdaptiveWindow = 16
	return []struct {
		name string
		p    wireless.Params
	}{
		{"backoff+fifo", fifo},
		{"backoff+csma", csma},
		{"token", token},
		{"adaptive+csma", adaptive},
	}
}

func main() {
	fmt.Println("Synchronized storm: cycles/message to drain N simultaneous senders")
	fmt.Printf("%8s", "N")
	for _, s := range setups() {
		fmt.Printf("  %13s", s.name)
	}
	fmt.Println()
	for _, nodes := range []int{4, 16, 64, 256} {
		fmt.Printf("%8d", nodes)
		for _, s := range setups() {
			drain, _, _ := storm(nodes, s.p)
			fmt.Printf("  %13.1f", float64(drain)/float64(nodes))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("Collision counts for the 256-node storm (why the ranking flips):")
	for _, s := range setups() {
		_, st, mc := storm(256, s.p)
		fmt.Printf("  %-13s  collisions=%-5d token-waits=%-6d mode-switches=%d\n",
			s.name, st.Collisions, mc.TokenWaitCycles, mc.ModeSwitches)
	}
	fmt.Println()
	fmt.Println("Lone sender, 40 messages on a 64-node ring: total cycles")
	for _, s := range setups() {
		fmt.Printf("  %-13s  %6d\n", s.name, lone(64, 40, s.p))
	}
}
