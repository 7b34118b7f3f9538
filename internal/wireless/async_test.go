package wireless

import (
	"reflect"
	"testing"

	"wisync/internal/sim"
)

// TestSendAsyncMirrorsSend drives a transmission scenario through
// SendAsync and checks every completion — node, cycle and outcome, in
// order — and the channel statistics against the values recorded from the
// blocking Send (one process per message) that SendAsync replaced. The
// scenario covers every completion path: clean commits, a same-slot
// collision with backoff, FIFO deferral behind a busy channel, a
// grant-abandoned message (prepare hook), and a transfer withdrawn while
// deferred.
func TestSendAsyncMirrorsSend(t *testing.T) {
	type done struct {
		Node      int
		At        sim.Time
		Committed bool
	}
	const nodes = 8
	sends := []struct {
		node  int
		start sim.Time
	}{{0, 0}, {1, 0}, {2, 3}, {3, 5}, {4, 5}, {5, 6}, {6, 6}, {7, 40}}

	eng := sim.NewEngine(7)
	n := New(eng, nodes, Params{})
	// Node 3's message is stale at grant time and must be abandoned.
	n.SetPrepare(func(m Msg) bool { return m.Val != 99 })
	var results []done
	var cancelTok Token
	for _, sd := range sends {
		msg := Msg{Src: sd.node, Addr: uint32(sd.node), Val: uint64(sd.node)}
		if sd.node == 3 {
			msg.Val = 99
		}
		var tok *Token
		if sd.node == 5 {
			tok = &cancelTok
		}
		eng.ScheduleAt(sd.start, sim.PrioNormal, func() {
			n.SendAsync(msg, tok, func(committed bool) {
				results = append(results, done{sd.node, eng.Now(), committed})
			})
		})
	}
	// Withdraw node 5's transfer while it is still deferred behind the
	// busy channel.
	eng.ScheduleAt(8, sim.PrioNormal, func() { cancelTok.Cancel() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	want := []done{{1, 7, true}, {5, 8, false}, {2, 12, true}, {0, 17, true},
		{3, 17, false}, {4, 22, true}, {6, 27, true}, {7, 45, true}}
	if !reflect.DeepEqual(results, want) {
		t.Errorf("completions diverge:\n got: %+v\nwant: %+v", results, want)
	}
	wantStats := Stats{Messages: 6, Collisions: 1, Withdrawn: 1, SkippedGrants: 1, BusyCycles: 32, LatencySum: 76}
	if n.Stats != wantStats {
		t.Errorf("stats diverge:\n got: %+v\nwant: %+v", n.Stats, wantStats)
	}
}
