// Package bmem implements the WiSync Broadcast Memory (Sections 3.2, 4.2,
// 4.4): a small per-core memory whose contents are replicated across all
// cores through the wireless Data channel.
//
// Because every committed wireless message updates all replicas at the same
// cycle and the channel provides a total order, the replicas are modeled as
// a single logical array plus per-node architectural state (WCB, AFB,
// pending RMW bookkeeping). Entries are 64-bit, tagged with the PID of the
// owning process; a PID mismatch on access is a protection violation. Local
// loads always succeed at the BM round-trip latency; stores block until the
// broadcast commits (the sequential-consistency variant of Section 4.2.1);
// read-modify-writes follow the WCB/AFB protocol: the hardware detects a
// conflicting remote commit between the local read and the broadcast, sets
// the Atomicity Failure Bit, and withdraws the transfer, leaving the retry
// to software (Figure 4).
package bmem

import (
	"fmt"
	"sync"

	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// Params configures a Broadcast Memory.
type Params struct {
	// Entries is the number of 64-bit entries (16 KB -> 2048, giving the
	// 11-bit wireless address field).
	Entries int
	// RT is the BM round-trip latency in cycles (Table 1: 2; the
	// SlowBMEM sensitivity variant uses 4).
	RT sim.Time
	// PageEntries is the number of entries per OS page (4 KB -> 512).
	PageEntries int
	// RMWEarlyRead selects the literal Section 4.2.1 RMW protocol: the
	// local BM is read when the instruction issues, and a conflicting
	// remote commit before the broadcast wins the channel sets AFB and
	// forces a software retry (Figure 4). The default (false) evaluates
	// the read-modify-write when the broadcast commits ("at grant"):
	// every replica applies the operation to the same committed value,
	// so atomicity cannot fail and a contended fetch&Phi stream drains
	// at full channel rate — which is what the paper's barrier and
	// reduction results require (Figure 7: 2-6x of the Tone barrier,
	// i.e. roughly one message time per arrival). The early-read
	// protocol is kept as an ablation; its per-commit abort storms cost
	// about 3x more under bursts.
	RMWEarlyRead bool
}

// DefaultParams returns the Table 1 BM configuration.
func DefaultParams() Params {
	return Params{Entries: 2048, RT: 2, PageEntries: 512}
}

// ErrFull reports that no BM entry is free; callers are expected to spill
// the variable to regular cached memory (Section 4.2).
var ErrFull = fmt.Errorf("bmem: broadcast memory full")

// ProtectionError is returned when a process accesses an entry tagged with
// a different PID.
type ProtectionError struct {
	Node int
	Addr uint32
	PID  uint16
	Tag  uint16
}

func (e *ProtectionError) Error() string {
	return fmt.Sprintf("bmem: node %d pid %d accessed addr %d owned by pid %d",
		e.Node, e.PID, e.Addr, e.Tag)
}

// AddrError is returned for out-of-range or unallocated addresses.
type AddrError struct {
	Addr uint32
	Why  string
}

func (e *AddrError) Error() string {
	return fmt.Sprintf("bmem: addr %d: %s", e.Addr, e.Why)
}

type entry struct {
	val       uint64
	pid       uint16
	allocated bool
	tone      bool
}

type pendingRMW struct {
	active  bool
	aborted bool
	addr    uint32
	tok     wireless.Token
}

// Stats accumulates BM counters.
type Stats struct {
	Loads       uint64
	Stores      uint64
	RMWs        uint64
	AFBFailures uint64
	Allocs      uint64
	Frees       uint64
}

// BM is the chip-wide logical Broadcast Memory (all per-core replicas plus
// per-node architectural bits).
type BM struct {
	eng     *sim.Engine
	net     *wireless.Network
	p       Params
	nodes   int
	entries []entry
	// lowFree is the allocation cursor: every entry below it is allocated
	// (alloc.go).
	lowFree int
	wcb     []bool
	afb     []bool
	pending []pendingRMW
	// activeRMWs counts the early-read RMWs whose atomicity window is
	// open (pending entries with active set), so a commit skips the
	// conflict scan when there are none, as under grant-time RMWs.
	activeRMWs int
	// watchers holds each word's parked spinners between polls (spin.go).
	watchers map[uint32]*spinList
	// onToneInit is installed by the tone controller to observe Tone-bit
	// messages.
	onToneInit func(msg wireless.Msg, at sim.Time)
	// loadFree, spinFree, herdFree, storeFree and rmwFree recycle the
	// delivery, spin-loop, spin-herd, commit and grant-time-RMW
	// continuations (async.go, spin.go), so the steady-state paths
	// allocate no closures; cohortFree recycles the spin lists' cohorts.
	loadFree   []*loadCont
	spinFree   []*bmSpin
	herdFree   []*spinHerd
	storeFree  []*storeCont
	rmwFree    []*rmwGrantCont
	cohortFree []*cohort
	// probing is set while the prepare hook evaluates an RMW Op against
	// the current replica value at grant time. The Op wrappers use it to
	// tell a probe (the write may still be denied by a failed compare —
	// a completed instruction) from the commit application (the write
	// happened), so an RMW whose broadcast never applied — delivery
	// failure, fault-injected outage — reports ok == false instead of a
	// stale success.
	probing bool
	// Stats is exported for harness reporting.
	Stats Stats
	// store is the bmStore this BM took its entry table from, refilled
	// and handed on by Release.
	store *bmStore
}

// bmStore is the storage a released BM hands to the next BM built in the
// process (see Release): the entry table, zeroed again when taken.
type bmStore struct{ entries []entry }

// bmStores passes bmStores from released BMs to new ones.
var bmStores sync.Pool

// New creates the Broadcast Memory over the given Data channel.
func New(eng *sim.Engine, net *wireless.Network, nodes int, p Params) *BM {
	if p.Entries == 0 {
		p = DefaultParams()
	}
	st, _ := bmStores.Get().(*bmStore)
	switch {
	case st == nil:
		st = &bmStore{entries: make([]entry, p.Entries)}
	case cap(st.entries) < p.Entries:
		st.entries = make([]entry, p.Entries)
	default:
		st.entries = st.entries[:p.Entries]
		clear(st.entries)
	}
	b := &BM{
		eng:      eng,
		net:      net,
		p:        p,
		nodes:    nodes,
		entries:  st.entries,
		store:    st,
		wcb:      make([]bool, nodes),
		afb:      make([]bool, nodes),
		pending:  make([]pendingRMW, nodes),
		watchers: make(map[uint32]*spinList),
	}
	net.Subscribe(b.onCommit)
	// Grant-time RMW staleness check: an RMW whose write would not be
	// performed (failed compare) is abandoned before transmitting.
	net.SetPrepare(func(m wireless.Msg) bool {
		if m.Kind != wireless.KindRMW || m.Op == nil {
			return true
		}
		b.probing = true
		_, do := m.Op(b.entries[m.Addr].val)
		b.probing = false
		return do
	})
	return b
}

// Release hands the BM's entry table to the BM built next in this
// process. Call it once nothing reads the BM any more; it must not be used
// afterwards.
func (b *BM) Release() {
	st := b.store
	b.store = nil
	st.entries, b.entries = b.entries, nil
	bmStores.Put(st)
}

// Params returns the BM configuration.
func (b *BM) Params() Params { return b.p }

// SetRMWEarlyRead switches between the default grant-time RMW evaluation
// and the literal Section 4.2.1 early-read protocol (see Params), for
// ablation studies. Call before the simulation starts.
func (b *BM) SetRMWEarlyRead(early bool) { b.p.RMWEarlyRead = early }

// Nodes returns the number of per-core replicas.
func (b *BM) Nodes() int { return b.nodes }

// SetToneInitHandler installs the tone controller's hook for messages with
// the Tone bit set.
func (b *BM) SetToneInitHandler(fn func(msg wireless.Msg, at sim.Time)) {
	b.onToneInit = fn
}

func (b *BM) check(node int, pid uint16, addr uint32) error {
	if int(addr) >= b.p.Entries {
		return &AddrError{Addr: addr, Why: "out of range"}
	}
	e := &b.entries[addr]
	if !e.allocated {
		return &AddrError{Addr: addr, Why: "not allocated"}
	}
	if e.pid != pid {
		return &ProtectionError{Node: node, Addr: addr, PID: pid, Tag: e.pid}
	}
	return nil
}

// onCommit applies a committed wireless message to every replica, wakes
// spinners, and aborts pending RMWs whose atomicity the commit breaks.
func (b *BM) onCommit(m wireless.Msg, at sim.Time) {
	switch m.Kind {
	case wireless.KindStore, wireless.KindRMW:
		if m.Op != nil {
			// Grant-time RMW: apply the operation to the committed
			// value; all replicas compute the same result.
			if nv, do := m.Op(b.entries[m.Addr].val); do {
				b.entries[m.Addr].val = nv
			}
		} else {
			b.entries[m.Addr].val = m.Val
		}
		b.conflict(m.Src, m.Addr)
		b.wakeWatchers(m.Addr)
	case wireless.KindBulk:
		b.entries[m.Addr].val = m.Val
		b.conflict(m.Src, m.Addr)
		b.wakeWatchers(m.Addr)
		for i, v := range m.BulkVals {
			a := m.Addr + 1 + uint32(i)
			if int(a) < b.p.Entries {
				b.entries[a].val = v
				b.conflict(m.Src, a)
				b.wakeWatchers(a)
			}
		}
	case wireless.KindToneInit:
		if b.onToneInit != nil {
			b.onToneInit(m, at)
		}
	case wireless.KindAlloc:
		// The entry was reserved at issue time; the commit makes the
		// allocation architectural in every replica.
		e := &b.entries[m.Addr]
		e.allocated = true
		e.pid = m.PID
		e.val = 0
	case wireless.KindFree:
		b.entries[m.Addr] = entry{}
		if int(m.Addr) < b.lowFree {
			b.lowFree = int(m.Addr)
		}
		b.wakeWatchers(m.Addr)
	}
}

// conflict aborts any pending RMW on addr at nodes other than src.
func (b *BM) conflict(src int, addr uint32) {
	if b.activeRMWs == 0 {
		return
	}
	for n := range b.pending {
		pr := &b.pending[n]
		if n != src && pr.active && pr.addr == addr {
			b.closeRMW(pr)
			pr.aborted = true
			b.afb[n] = true
			b.Stats.AFBFailures++
			pr.tok.Cancel() // no-op if the transfer was not yet issued
		}
	}
}

// closeRMW closes pr's atomicity window, if open.
func (b *BM) closeRMW(pr *pendingRMW) {
	if pr.active {
		pr.active = false
		b.activeRMWs--
	}
}

// WCB returns node's Write Completion Bit.
func (b *BM) WCB(node int) bool { return b.wcb[node] }

// AFB returns node's Atomicity Failure Bit.
func (b *BM) AFB(node int) bool { return b.afb[node] }

// AbortPendingRMW aborts node's in-flight RMW, if any, setting AFB. The OS
// uses this when an exception or context switch lands between a RMW and its
// AFB check (Section 4.2.1). It reports whether an RMW was aborted.
func (b *BM) AbortPendingRMW(node int) bool {
	pr := &b.pending[node]
	if !pr.active {
		return false
	}
	b.closeRMW(pr)
	pr.aborted = true
	b.afb[node] = true
	b.Stats.AFBFailures++
	pr.tok.Cancel()
	return true
}

// Peek returns the committed value at addr without timing effects.
func (b *BM) Peek(addr uint32) uint64 { return b.entries[addr].val }

// Poke sets addr's value without timing or broadcast, for test setup.
func (b *BM) Poke(addr uint32, val uint64) { b.entries[addr].val = val }

// Allocated reports whether addr is allocated and to which PID.
func (b *BM) Allocated(addr uint32) (bool, uint16) {
	e := &b.entries[addr]
	return e.allocated, e.pid
}

// IsTone reports whether addr was allocated as a tone-barrier variable.
func (b *BM) IsTone(addr uint32) bool { return b.entries[addr].tone }

// ToggleLocal flips addr between zero and non-zero in every replica without
// using the Data channel. The tone controller calls this when the Tone
// channel falls silent (Section 4.2.2); it also wakes spinners.
func (b *BM) ToggleLocal(addr uint32) {
	e := &b.entries[addr]
	if e.val == 0 {
		e.val = 1
	} else {
		e.val = 0
	}
	b.wakeWatchers(addr)
}
