package syncprims

import "wisync/internal/core"

// centralBarrier is the Baseline barrier: a centralized sense-reversing
// barrier [16] with the arrival count incremented by a CAS retry loop (CAS
// is the Baseline machine's only atomic, Table 2) and a release flag on a
// separate cache line. Episode numbers replace the boolean sense so the
// barrier is trivially reusable. Under simultaneous arrivals the CAS loop
// serializes one full load+CAS round trip per arriver — the cost the paper
// measures for Baseline in Figure 7.
type centralBarrier struct {
	count   uint64
	release uint64
	n       uint64
	ep      []uint64 // per-core episode
	// steps holds the per-core recycled state machines, allocated lazily
	// on first use (task.go).
	steps []*centralStep
}

func newCentralBarrier(m *core.Machine, participants int) *centralBarrier {
	return &centralBarrier{
		count:   m.AllocLine(),
		release: m.AllocLine(),
		n:       uint64(participants),
		ep:      make([]uint64, m.Cfg.Cores),
	}
}

// tournamentBarrier is the Baseline+ barrier [31]: threads play a
// single-elimination tournament; at each round the statically-determined
// loser sets the winner's arrival flag and spins on its own wakeup flag.
// The champion then wakes its beaten opponents in reverse order, and each
// woken thread wakes the opponents it beat. Every flag lives on its own
// line, so all spinning is local.
type tournamentBarrier struct {
	n      int
	rounds int
	// arrive[r*n+idx] is the flag the round-r loser sets for winner idx.
	arrive []uint64
	// wake[idx] releases thread idx.
	wake []uint64
	ep   []uint64
}

func newTournamentBarrier(m *core.Machine, participants int) *tournamentBarrier {
	rounds := 0
	for v := 1; v < participants; v <<= 1 {
		rounds++
	}
	b := &tournamentBarrier{
		n:      participants,
		rounds: rounds,
		arrive: make([]uint64, rounds*participants),
		wake:   make([]uint64, participants),
		ep:     make([]uint64, m.Cfg.Cores),
	}
	for i := range b.arrive {
		b.arrive[i] = m.AllocLine()
	}
	for i := range b.wake {
		b.wake[i] = m.AllocLine()
	}
	return b
}

// dataBarrier is the WiSync Data-channel barrier (Section 4.3.2): a
// sense-reversing barrier in one 64-bit BM entry — arrival count in the
// low half, release episode in the high half, exactly the packing the
// paper suggests. Arrivals fetch&inc over the wireless channel; waiting
// spins on the local BM replica.
type dataBarrier struct {
	addr uint32
	n    uint64
	ep   []uint64
	// steps holds the per-core recycled state machines (task.go).
	steps []*dataStep
}

// toneBarrier is the WiSync Tone-channel barrier (Section 4.3.3, Figure
// 4(c)): tone_st on arrival, then spin with tone_ld on the local BM entry,
// which the tone controllers toggle when the channel falls silent.
type toneBarrier struct {
	addr  uint32
	sense []uint64
	// steps holds the per-core recycled state machines (task.go).
	steps []*toneStep
}
