package syncprims

import "wisync/internal/mem"

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
	f       *Factory // owns the recycled steps (task.go)
}

func newCentralBarrier(f *Factory, participants int) *centralBarrier {
	return &centralBarrier{
		count:   f.m.AllocLine(),
		release: f.m.AllocLine(),
		n:       uint64(participants),
		ep:      make([]uint64, f.m.Cfg.Cores),
		f:       f,
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
	// flags is the first of (rounds+1)*n consecutive flag lines: the
	// arrival flags of each round, then the wakeup flags (see arrive and
	// wake).
	flags uint64
	ep    []uint64
	f     *Factory // owns the recycled steps (task.go)
}

func newTournamentBarrier(f *Factory, participants int) *tournamentBarrier {
	rounds := 0
	for v := 1; v < participants; v <<= 1 {
		rounds++
	}
	return &tournamentBarrier{
		n:      participants,
		rounds: rounds,
		flags:  f.m.AllocLines((rounds + 1) * participants),
		ep:     make([]uint64, f.m.Cfg.Cores),
		f:      f,
	}
}

// arrive is the flag the round-r loser sets for winner idx.
func (b *tournamentBarrier) arrive(r, idx int) uint64 {
	return b.flags + uint64(r*b.n+idx)*mem.LineBytes
}

// wake is the flag that releases thread idx.
func (b *tournamentBarrier) wake(idx int) uint64 { return b.arrive(b.rounds, idx) }

// dataBarrier is the WiSync Data-channel barrier (Section 4.3.2): a
// sense-reversing barrier in one 64-bit BM entry — arrival count in the
// low half, release episode in the high half, exactly the packing the
// paper suggests. Arrivals fetch&inc over the wireless channel; waiting
// spins on the local BM replica.
type dataBarrier struct {
	addr uint32
	n    uint64
	ep   []uint64
	f    *Factory // owns the recycled steps (task.go)
}

// toneBarrier is the WiSync Tone-channel barrier (Section 4.3.3, Figure
// 4(c)): tone_st on arrival, then spin with tone_ld on the local BM entry,
// which the tone controllers toggle when the channel falls silent.
type toneBarrier struct {
	addr  uint32
	sense []uint64
	f     *Factory // owns the recycled steps (task.go)
}
