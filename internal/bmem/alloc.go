package bmem

import "wisync/internal/wireless"

// Alloc allocates one 64-bit entry for pid, broadcasting the allocation so
// every replica creates the entry at the same address (Section 4.4). The
// address is chosen by the OS at issue time and reserved immediately, so
// concurrent allocations from different nodes never pick the same entry;
// then runs when the broadcast completes. tone marks the entry as a
// tone-barrier variable. Alloc returns ErrFull when no entry is free; the
// caller is expected to fall back to a variable in regular cached memory.
func (b *BM) Alloc(node int, pid uint16, tone bool, then func(committed bool)) (uint32, error) {
	addr := b.lowestFreeRun(1)
	if addr < 0 {
		return 0, ErrFull
	}
	// Reserve now; the commit makes it architectural.
	e := &b.entries[addr]
	e.allocated = true
	e.pid = pid
	e.tone = tone
	e.val = 0
	b.Stats.Allocs++
	b.net.SendAsync(wireless.Msg{Src: node, Addr: uint32(addr), Kind: wireless.KindAlloc, PID: pid}, nil, then)
	return uint32(addr), nil
}

// AllocContiguous allocates n consecutive entries (for Bulk transfers,
// which address four adjacent words) and returns the first address. All n
// are reserved immediately; their allocation messages broadcast one after
// another, and then runs when the last completes.
func (b *BM) AllocContiguous(node int, pid uint16, n int, then func(committed bool)) (uint32, error) {
	start := b.lowestFreeRun(n)
	if start < 0 {
		return 0, ErrFull
	}
	for j := start; j < start+n; j++ {
		e := &b.entries[j]
		e.allocated = true
		e.pid = pid
		e.val = 0
		b.Stats.Allocs++
	}
	j := start
	var next func(bool)
	next = func(committed bool) {
		if j == start+n {
			then(committed)
			return
		}
		m := wireless.Msg{Src: node, Addr: uint32(j), Kind: wireless.KindAlloc, PID: pid}
		j++
		b.net.SendAsync(m, nil, next)
	}
	next(true)
	return uint32(start), nil
}

// Free deallocates addr in every replica; then runs when the broadcast
// completes.
func (b *BM) Free(node int, pid uint16, addr uint32, then func(committed bool)) error {
	if err := b.check(node, pid, addr); err != nil {
		return err
	}
	b.Stats.Frees++
	b.net.SendAsync(wireless.Msg{Src: node, Addr: addr, Kind: wireless.KindFree, PID: pid}, nil, then)
	return nil
}

// FreeEntries returns how many entries are unallocated.
func (b *BM) FreeEntries() int {
	n := 0
	for i := b.lowFree; i < len(b.entries); i++ {
		if !b.entries[i].allocated {
			n++
		}
	}
	return n
}

// AllocBare allocates an entry with no timing and no broadcast, for test
// and harness setup phases that should not consume simulated cycles.
func (b *BM) AllocBare(pid uint16, tone bool) (uint32, error) {
	i := b.lowestFreeRun(1)
	if i < 0 {
		return 0, ErrFull
	}
	e := &b.entries[i]
	e.allocated = true
	e.pid = pid
	e.tone = tone
	e.val = 0
	b.Stats.Allocs++
	return uint32(i), nil
}

// AllocBareContiguous is AllocBare for n consecutive entries.
func (b *BM) AllocBareContiguous(pid uint16, n int) (uint32, error) {
	start := b.lowestFreeRun(n)
	if start < 0 {
		return 0, ErrFull
	}
	for j := start; j < start+n; j++ {
		e := &b.entries[j]
		e.allocated = true
		e.pid = pid
	}
	b.Stats.Allocs += uint64(n)
	return uint32(start), nil
}

// lowestFreeRun returns the first entry of the lowest run of n free entries,
// or -1 if there is none; the caller reserves the run. Every entry below
// b.lowFree is allocated, so the scan starts there, and it moves b.lowFree
// up to the lowest entry it found free, or past the run when the run
// starts there. A committed free lowers b.lowFree again (onCommit). So
// once the memory is full, an allocation that spills costs no scan.
func (b *BM) lowestFreeRun(n int) int {
	run, start, first := 0, -1, -1
	for i := b.lowFree; i < len(b.entries); i++ {
		if b.entries[i].allocated {
			run = 0
			continue
		}
		if first < 0 {
			first = i
		}
		if run == 0 {
			start = i
		}
		run++
		if run == n {
			if start == first {
				first = start + n
			}
			b.lowFree = first
			return start
		}
	}
	if first < 0 {
		first = len(b.entries)
	}
	b.lowFree = first
	return -1
}
