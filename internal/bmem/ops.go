package bmem

import (
	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// Load reads the 64-bit entry at addr from node's local replica.
func (b *BM) Load(p *sim.Proc, node int, pid uint16, addr uint32) (uint64, error) {
	if err := b.check(node, pid, addr); err != nil {
		return 0, err
	}
	b.Stats.Loads++
	p.Sleep(b.p.RT)
	return b.entries[addr].val, nil
}

// Store broadcasts val to addr in every replica. It blocks until the write
// commits (all replicas updated), at which point WCB is set. The MAC
// retries through collisions; on the ideal channel without faults a store
// cannot fail, only take longer. Under a lossy channel or a fault plan
// the broadcast can fail permanently (retry budget exhausted, transceiver
// outage): WCB then honestly reads false — software that needs the write
// checks WCB and reissues.
func (b *BM) Store(p *sim.Proc, node int, pid uint16, addr uint32, val uint64) error {
	if err := b.check(node, pid, addr); err != nil {
		return err
	}
	b.Stats.Stores++
	b.wcb[node] = false
	committed := b.net.Send(p, wireless.Msg{Src: node, Addr: addr, Val: val, Kind: wireless.KindStore, PID: pid}, nil)
	b.wcb[node] = committed
	return nil
}

// BulkLoad reads four consecutive entries starting at addr (Section 3.2).
// A single BM access burst is charged: RT plus one cycle per extra word.
func (b *BM) BulkLoad(p *sim.Proc, node int, pid uint16, addr uint32) ([4]uint64, error) {
	var out [4]uint64
	for i := uint32(0); i < 4; i++ {
		if err := b.check(node, pid, addr+i); err != nil {
			return out, err
		}
	}
	b.Stats.Loads += 4
	p.Sleep(b.p.RT + 3)
	for i := uint32(0); i < 4; i++ {
		out[i] = b.entries[addr+i].val
	}
	return out, nil
}

// BulkStore broadcasts four words to consecutive addresses starting at addr
// in one 15-cycle wireless message (Section 4.1).
func (b *BM) BulkStore(p *sim.Proc, node int, pid uint16, addr uint32, vals [4]uint64) error {
	for i := uint32(0); i < 4; i++ {
		if err := b.check(node, pid, addr+i); err != nil {
			return err
		}
	}
	b.Stats.Stores += 4
	b.wcb[node] = false
	m := wireless.Msg{Src: node, Addr: addr, Val: vals[0], Kind: wireless.KindBulk, PID: pid}
	copy(m.BulkVals[:], vals[1:])
	committed := b.net.Send(p, m, nil)
	b.wcb[node] = committed
	return nil
}

// RMW performs one hardware read-modify-write attempt at addr: read the
// local replica, apply f in the pipeline, and broadcast the result. f
// returns the new value and whether to perform the write; a CAS whose
// comparison fails returns false and broadcasts nothing (the failure is
// decided atomically on the read). RMW returns the value read and ok=true
// if the instruction executed atomically (AFB clear). ok=false means a
// remote commit to addr landed inside the atomicity window: AFB is set,
// nothing was written, and software must retry (Figure 4(a)).
func (b *BM) RMW(p *sim.Proc, node int, pid uint16, addr uint32, f func(uint64) (uint64, bool)) (uint64, bool, error) {
	if err := b.check(node, pid, addr); err != nil {
		return 0, false, err
	}
	b.Stats.RMWs++
	if !b.p.RMWEarlyRead {
		return b.rmwAtGrant(p, node, pid, addr, f)
	}
	b.wcb[node] = false
	b.afb[node] = false
	pr := &b.pending[node]
	*pr = pendingRMW{active: true, addr: addr}

	// Local read: the atomicity window opens here.
	p.Sleep(b.p.RT)
	old := b.entries[addr].val

	if pr.aborted {
		// A conflicting commit landed during the local read.
		b.wcb[node] = true
		return old, false, nil
	}
	newVal, doWrite := f(old)
	if !doWrite {
		pr.active = false
		b.wcb[node] = true
		return old, true, nil
	}
	committed := b.net.Send(p, wireless.Msg{Src: node, Addr: addr, Val: newVal, Kind: wireless.KindRMW, PID: pid}, &pr.tok)
	b.wcb[node] = true
	if !committed {
		// Withdrawn: AFB was set by the conflicting commit.
		return old, false, nil
	}
	pr.active = false
	return old, true, nil
}

// rmwAtGrant is the default RMW path: the operation rides in the message
// and every replica applies it to the committed value at commit time. The
// returned old value is the committed value the operation observed;
// atomicity cannot fail (ok is always true).
//
// The local BM read and the channel submission run as engine-scheduled
// continuations: the thread parks exactly once for the whole RMW and is
// dispatched directly by the commit (or grant-abandon) event, instead of
// waking after the pipeline read only to park again on the channel. The
// scheduled submission lands at the same (time, priority, sequence)
// position as the blocking read's wake-up did, so results are
// bit-identical to the blocking form.
func (b *BM) rmwAtGrant(p *sim.Proc, node int, pid uint16, addr uint32, f func(uint64) (uint64, bool)) (uint64, bool, error) {
	b.wcb[node] = false
	b.afb[node] = false
	var old uint64
	var ran, denied bool
	op := func(cur uint64) (uint64, bool) {
		old = cur
		nv, do := f(cur)
		if b.probing {
			// Grant-time probe: a denied write (failed compare) is a
			// completed instruction — the decision is atomic on the
			// committed value the probe observed.
			denied = !do
		} else {
			ran = true // commit application: the write happened chip-wide
		}
		return nv, do
	}
	// The instruction still reads the local BM into the pipeline (RT),
	// then contends for the channel.
	b.scheduleSend(b.p.RT, p, wireless.Msg{Src: node, Addr: addr, Kind: wireless.KindRMW, PID: pid, Op: op})
	p.Park("bm rmw")
	// The operation completed iff it was applied at a commit or denied at
	// a probe. Neither happened when the broadcast failed permanently —
	// retry budget exhausted or a fault-injected outage — and old would be
	// stale; software must retry, exactly like an AFB failure.
	ok := ran || denied
	b.wcb[node] = ok
	return old, ok, nil
}

// WaitChange parks until a commit (or tone toggle) touches addr. The caller
// re-reads afterwards; wake-ups can be spurious (same value rewritten).
func (b *BM) WaitChange(p *sim.Proc, node int, addr uint32) {
	b.watch(addr, watcher{p: p})
	p.Park("bm spin")
}

// SpinUntil polls addr in the local replica until cond holds, sleeping
// between polls the way a core spins on its local BM: no network traffic at
// all. It returns the satisfying value.
func (b *BM) SpinUntil(p *sim.Proc, node int, pid uint16, addr uint32, cond func(uint64) bool) (uint64, error) {
	for {
		v, err := b.Load(p, node, pid, addr)
		if err != nil {
			return 0, err
		}
		if cond(v) {
			return v, nil
		}
		b.WaitChange(p, node, addr)
	}
}
