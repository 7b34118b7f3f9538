// Package mem implements the wired memory substrate of Table 1: private
// per-core L1 caches, a shared L2 distributed as one bank per core, a MOESI
// directory protocol, and four off-chip memory controllers, all on top of
// the 2D-mesh of package noc.
//
// The model is a combined functional + timing model. Values live in a
// single global word store (the simulator is single-threaded, so this is
// race-free); the protocol determines *when* each access completes and how
// transactions to the same line serialize. Serialization is modeled with a
// FIFO lock per directory line: the home directory processes one
// transaction on a line at a time, holding the line while invalidations and
// forwards are outstanding. This is what reproduces the synchronization
// costs the paper measures on Baseline and Baseline+: ownership ping-pong
// on contended CAS lines, and invalidation/refill storms on spin variables.
//
// Spin-waiting is modeled faithfully to hardware: a spinning core holds the
// line in Shared state and generates no traffic until the line is
// invalidated, at which point it re-fetches (SpinUntil).
package mem

import (
	"fmt"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

// LineShift is log2 of the coherence line size (64 bytes).
const LineShift = 6

// LineBytes is the coherence line size.
const LineBytes = 1 << LineShift

// State is an L1 MOESI state.
type State uint8

// MOESI states for an L1 line.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "?"
}

// Params configures the memory system. All latencies are in cycles.
type Params struct {
	Cores int
	// L1RT is the L1 round-trip latency (Table 1: 2).
	L1RT sim.Time
	// L2RT is the local L2 bank round-trip latency (Table 1: 6).
	L2RT sim.Time
	// MemRT is the off-chip memory round trip (Table 1: 110).
	MemRT sim.Time
	// MemCtrlOcc is the per-request occupancy of a memory controller
	// port, bounding its bandwidth.
	MemCtrlOcc sim.Time
	// L1Sets and L1Ways give the private L1 geometry (32KB 2-way, 64B
	// lines: 256 sets x 2 ways).
	L1Sets, L1Ways int
	// TreeBroadcast enables the Baseline+ virtual-tree multicast support
	// for invalidation fan-out (Krishna et al. [22]).
	TreeBroadcast bool
}

// DefaultParams returns the Table 1 configuration for n cores.
func DefaultParams(n int) Params {
	return Params{
		Cores:      n,
		L1RT:       2,
		L2RT:       6,
		MemRT:      110,
		MemCtrlOcc: 8,
		L1Sets:     256,
		L1Ways:     2,
	}
}

// Stats accumulates memory-system counters.
type Stats struct {
	L1Hits        uint64
	L1Misses      uint64
	Transactions  uint64
	Invalidations uint64
	Forwards      uint64
	MemFetches    uint64
	Evictions     uint64
}

type bitset [4]uint64 // up to 256 cores

func (b *bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b *bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b *bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b *bitset) empty() bool    { return b[0]|b[1]|b[2]|b[3] == 0 }

// dirLine is the directory entry for one line, held at its home bank. It
// holds no pointers, and its zero value is a fresh line: no owner, no
// sharers, not in L2, and a free lock.
type dirLine struct {
	// lock serializes transactions on the line.
	lock fifoLock
	// own is the core holding E/M/O plus one, or 0 when none does; read
	// and write it through owner and setOwner.
	own     uint16
	sharers bitset
	inL2    bool
	// settleAt is when the most recent ownership grant completes at the
	// new owner (data, acks and fill all arrived). The home defers the
	// next transaction on the line until then: consecutive ownership
	// transfers serialize over a full round trip, as in real ack-counted
	// protocols where an owner with a pending grant defers or NACKs.
	settleAt sim.Time
}

// owner returns the core holding the line in E/M/O, or -1.
func (d *dirLine) owner() int { return int(d.own) - 1 }

// setOwner records core as the line's owner; -1 clears it.
func (d *dirLine) setOwner(core int) { d.own = uint16(core + 1) }

// l1slot is one L1 way's tag, (line+1)<<3 | state. The zero slot is a way
// that was never filled; the +1 keeps line 0 distinct from it. An
// invalidated way keeps its line, so a refill of that line reuses the way.
type l1slot uint64

func makeSlot(line uint64, st State) l1slot { return l1slot((line+1)<<3 | uint64(st)) }

func (sl l1slot) line() uint64           { return uint64(sl>>3) - 1 }
func (sl l1slot) state() State           { return State(sl & 7) }
func (sl l1slot) holds(line uint64) bool { return uint64(sl>>3) == line+1 }
func (sl *l1slot) setState(st State)     { *sl = *sl&^7 | l1slot(st) }

// l1cache is one core's L1 controller state besides its tags (which live
// in System.tags).
type l1cache struct {
	// mshr lists the transactions served to this core whose reply is
	// still in flight. invalidateL1 marks the entries for its line stale,
	// and a stale reply installs nothing, so a refill overtaken by an
	// invalidation leaves no stale copy.
	mshr []*txn
	// spin holds the waiter queue of every line a thread on this core has
	// spun on.
	spin map[uint64]*sim.WaitQueue
}

// spinQueue returns the queue of core's spinners on line, taking it from
// the free queues on first use.
func (s *System) spinQueue(core int, line uint64) *sim.WaitQueue {
	c := &s.l1[core]
	q := c.spin[line]
	if q == nil {
		if c.spin == nil {
			c.spin = make(map[uint64]*sim.WaitQueue)
		}
		if k := len(s.spinFree); k > 0 {
			q = s.spinFree[k-1]
			s.spinFree = s.spinFree[:k-1]
		} else {
			q = new(sim.WaitQueue)
		}
		c.spin[line] = q
	}
	return q
}

// wakeSpinners wakes the threads spinning on line, d cycles from now.
func (c *l1cache) wakeSpinners(line uint64, d sim.Time) {
	if len(c.spin) == 0 {
		return
	}
	if q := c.spin[line]; q != nil && q.Len() > 0 {
		q.WakeAll(d)
	}
}

// unlist removes t from the in-flight list.
func (c *l1cache) unlist(t *txn) {
	for i, e := range c.mshr {
		if e == t {
			last := len(c.mshr) - 1
			c.mshr[i] = c.mshr[last]
			c.mshr[last] = nil
			c.mshr = c.mshr[:last]
			return
		}
	}
}

// System is the wired coherent memory hierarchy.
type System struct {
	eng  *sim.Engine
	mesh *noc.Mesh
	p    Params
	l1   []l1cache
	// tags is every L1's tag array in one block, Cores x L1Sets x L1Ways,
	// each set MRU-first (see set).
	tags []l1slot
	// lines holds the word values and directory entry of every line the
	// point touched (see store.go).
	lines pagedStore
	// mc serializes each memory controller's port.
	mc [4]fifoLock
	// txns holds every transaction newTxn has created, at index id-1, so a
	// fifoLock can name its waiters by id.
	txns []*txn
	// txnFree recycles transaction state machines; the engine is single-
	// threaded, so a plain freelist suffices and steady-state transactions
	// allocate nothing. hits and spins do the same for the async face's
	// L1-hit delivery and spin-loop continuations (async.go).
	txnFree []*txn
	hits    sim.StepPool[hitCont]
	spins   sim.StepPool[memSpin]
	// spinFree holds the spin-waiter queues no line uses, emptied.
	spinFree []*sim.WaitQueue
	// Stats is exported for harness reporting.
	Stats Stats
}

// New builds a memory system over mesh with the given parameters.
func New(eng *sim.Engine, mesh *noc.Mesh, p Params) *System {
	s := new(System)
	s.Init(eng, mesh, p)
	return s
}

// Init makes s the system New(eng, mesh, p) returns. On a system that ran
// before, it keeps the storage that run built, emptied: the L1 tag array
// and controllers' arrays, the line store's chunks and index, the spin
// queues, and every transaction and continuation. Those a run cut at its
// horizon left in flight are taken back, cleared.
func (s *System) Init(eng *sim.Engine, mesh *noc.Mesh, p Params) {
	if p.Cores != mesh.Nodes() {
		panic(fmt.Sprintf("mem: %d cores but mesh has %d nodes", p.Cores, mesh.Nodes()))
	}
	if p.Cores > 256 {
		panic("mem: more than 256 cores not supported")
	}
	spinFree := s.spinFree
	all := s.l1[:cap(s.l1)]
	for i := range all {
		c := &all[i]
		for _, q := range c.spin {
			q.Clear()
			spinFree = append(spinFree, q)
		}
		clear(c.spin)
		clear(c.mshr)
	}
	l1 := s.l1
	if cap(l1) < p.Cores {
		l1 = make([]l1cache, p.Cores)
	}
	l1 = l1[:p.Cores]
	for i := range l1 {
		c := &l1[i]
		l1[i] = l1cache{mshr: c.mshr[:0], spin: c.spin}
	}
	// Every transaction is free, in id order.
	txnFree := s.txnFree[:0]
	for _, t := range s.txns {
		*t = txn{s: t.s, id: t.id, step: t.step, fin: t.fin}
		txnFree = append(txnFree, t)
	}
	s.lines.reset()
	*s = System{
		eng:      eng,
		mesh:     mesh,
		p:        p,
		l1:       l1,
		tags:     sim.Zeroed(s.tags, p.Cores*p.L1Sets*p.L1Ways),
		lines:    s.lines,
		txns:     s.txns,
		txnFree:  txnFree,
		hits:     s.hits.Recycled((*hitCont).clear),
		spins:    s.spins.Recycled((*memSpin).clear),
		spinFree: spinFree,
	}
}

// Params returns the configuration the system was built with.
func (s *System) Params() Params { return s.p }

// KeptLineBytes returns the bytes of line storage Init keeps for the next
// run: the line store's entry chunks and index arrays, sized by the most
// lines any run on s touched.
func (s *System) KeptLineBytes() int { return s.lines.bytes() }

// Line returns the line address containing addr.
func Line(addr uint64) uint64 { return addr >> LineShift }

// home returns the core whose L2 bank is the home for line.
func (s *System) home(line uint64) int { return int(line % uint64(s.p.Cores)) }

// dirAt returns line's directory entry, or nil if the line was never
// touched (for invariant checks).
func (s *System) dirAt(line uint64) *dirLine {
	if le := s.lines.get(line); le != nil {
		return &le.dir
	}
	return nil
}

// wordAt reads the committed value of the word at addr (0 if never
// written).
func (s *System) wordAt(addr uint64) uint64 {
	if le := s.lines.get(Line(addr)); le != nil {
		return le.words[wordIdx(addr)]
	}
	return 0
}

// set returns core's L1 set for line, MRU-first. Ways that were never
// filled trail the filled ones.
func (s *System) set(core int, line uint64) []l1slot {
	w := s.p.L1Ways
	i := (core*s.p.L1Sets + int(line&s.setsMask())) * w
	return s.tags[i : i+w : i+w]
}

// lookup finds the valid L1 slot for line in core's cache, moving it to
// MRU.
func (s *System) lookup(core int, line uint64) *l1slot {
	set := s.set(core, line)
	for i := range set {
		if set[i].holds(line) && set[i].state() != Invalid {
			if i != 0 {
				sl := set[i]
				copy(set[1:i+1], set[0:i])
				set[0] = sl
			}
			return &set[0]
		}
	}
	return nil
}
