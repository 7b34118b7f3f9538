package mem

import "fmt"

// CheckInvariants verifies protocol invariants at a quiescent point (no
// transactions in flight). It returns the first violation found, or nil.
//
// Invariants checked:
//  1. At most one core holds a line in E/M/O, and the directory's owner
//     field names exactly that core.
//  2. If any core holds a line in M or E, no other core holds it in S.
//  3. Every core holding a line in S appears in the directory sharer set,
//     and every recorded sharer either holds the line in S/O or has
//     silently... (we do precise bookkeeping, so: holds it in S or is the
//     owner in O).
//  4. No fill is in flight: every core's in-flight list is empty, so no
//     reply was lost on the way to its requester.
type holder struct {
	core  int
	state State
}

func (s *System) CheckInvariants() error {
	holders := make(map[uint64][]holder)
	for core := range s.l1 {
		if n := len(s.l1[core].mshr); n > 0 {
			return fmt.Errorf("mem: core %d has %d fills in flight at quiescence", core, n)
		}
		for si := 0; si < s.p.L1Sets; si++ {
			seen := map[uint64]bool{}
			for _, sl := range s.set(core, uint64(si)) {
				if sl.state() == Invalid {
					continue
				}
				line := sl.line()
				if seen[line] {
					return fmt.Errorf("mem: core %d holds line %#x in two ways", core, line)
				}
				seen[line] = true
				holders[line] = append(holders[line], holder{core, sl.state()})
			}
		}
	}
	for line, hs := range holders {
		d := s.dirAt(line)
		if d == nil {
			return fmt.Errorf("mem: line %#x cached but has no directory entry", line)
		}
		exclusiveHolder := -1
		for _, h := range hs {
			switch h.state {
			case Exclusive, Modified, Owned:
				if exclusiveHolder >= 0 {
					return fmt.Errorf("mem: line %#x has two owners: cores %d and %d", line, exclusiveHolder, h.core)
				}
				exclusiveHolder = h.core
			}
		}
		if exclusiveHolder >= 0 && d.owner() != exclusiveHolder {
			return fmt.Errorf("mem: line %#x owned by core %d in L1 but directory says %d", line, exclusiveHolder, d.owner())
		}
		for _, h := range hs {
			if h.state == Shared {
				if exclusiveHolder >= 0 {
					st := stateOf(hs, exclusiveHolder)
					if st == Modified || st == Exclusive {
						return fmt.Errorf("mem: line %#x shared by core %d while core %d holds it %v", line, h.core, exclusiveHolder, st)
					}
				}
				if !d.sharers.has(h.core) {
					return fmt.Errorf("mem: line %#x in S at core %d but not in directory sharers", line, h.core)
				}
			}
		}
	}
	return nil
}

func stateOf(hs []holder, core int) State {
	for _, h := range hs {
		if h.core == core {
			return h.state
		}
	}
	return Invalid
}
