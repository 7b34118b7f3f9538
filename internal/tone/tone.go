// Package tone implements the WiSync Tone channel and its per-node tone
// controllers (Sections 4.1, 4.2.2, 5.1).
//
// The Tone channel carries no data: nodes either emit a tone in a 1 ns slot
// or stay silent. A tone barrier works by absence-detection: when the first
// core arrives it broadcasts a message with the Tone bit set on the Data
// channel; every other participating ("armed") node then emits a continuous
// tone, and stops when it arrives. When the channel falls silent, every
// controller toggles the barrier's BM location, releasing the spinning
// cores — a sense-reversing barrier with a single Data-channel message per
// episode.
//
// Multiple concurrently active barriers time-share the channel: slots are
// assigned round-robin in ActiveB order (Figure 6), so a barrier at
// position i of K active barriers can only check its tone every K cycles.
// AllocB (allocated barriers, with per-node Armed bits) and ActiveB
// (currently active, with per-node Arrived bits) are replicated and
// identical on every node except for those bits, so the model keeps one
// logical copy of each.
package tone

import (
	"fmt"

	"wisync/internal/bmem"
	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// Params configures the tone controller tables.
type Params struct {
	// TableSize bounds AllocB and ActiveB (equal sizes, Section 5.1).
	TableSize int
	// MaxPerPID bounds AllocB entries per process so one program cannot
	// starve the others (Section 5.1).
	MaxPerPID int
}

// DefaultParams returns the default table geometry.
func DefaultParams() Params { return Params{TableSize: 16, MaxPerPID: 8} }

// ErrTableFull reports AllocB overflow.
var ErrTableFull = fmt.Errorf("tone: AllocB full")

// ErrPIDQuota reports that a process exceeded its AllocB quota.
var ErrPIDQuota = fmt.Errorf("tone: per-process AllocB quota exceeded")

// NotParticipantError reports a tone_st by a core whose AllocB entry is not
// armed: tone barrier participation is fixed at allocation (Section 4.4).
type NotParticipantError struct {
	Node int
	Addr uint32
}

func (e *NotParticipantError) Error() string {
	return fmt.Sprintf("tone: node %d is not a participant of barrier at %d", e.Node, e.Addr)
}

type bitset [4]uint64

func (b *bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b *bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

type allocEntry struct {
	addr  uint32
	pid   uint16
	armed bitset
	nArm  int
}

type activeBarrier struct {
	c            *Controller
	addr         uint32
	participants bitset
	arrived      bitset
	remaining    int
	activatedAt  sim.Time
	// detectAt is when the controllers detect the silence; completeFn is
	// the cached method value of complete, scheduled for then.
	detectAt   sim.Time
	completeFn func()
}

// pendingInit is a node's tone_st init message in flight: the barrier it
// announces, the issuing process, and the token that withdraws it.
type pendingInit struct {
	active bool
	addr   uint32
	pid    uint16
	tok    wireless.Token
}

// Stats accumulates tone controller counters.
type Stats struct {
	Activations    uint64
	Completions    uint64
	InitWithdrawn  uint64
	DetectDelaySum sim.Time // completion-to-toggle latency total
	ActiveCycles   sim.Time // cycles with at least one active barrier
}

// Controller is the chip-wide tone machinery (all per-node controllers plus
// the shared channel state).
type Controller struct {
	eng     *sim.Engine
	bm      *bmem.BM
	net     *wireless.Network
	nodes   int
	p       Params
	alloc   []*allocEntry
	active  []*activeBarrier
	pending []pendingInit
	// steps holds each node's recycled tone_st/tone_ld continuation
	// (barrier.go), made on the node's first use.
	steps []*nodeStep
	// barFree recycles completed ActiveB entries.
	barFree []*activeBarrier
	byPID   map[uint16]int
	lastAct sim.Time
	// Stats is exported for harness reporting.
	Stats Stats
}

// New wires a controller to the Broadcast Memory and Data channel.
func New(eng *sim.Engine, bm *bmem.BM, net *wireless.Network, p Params) *Controller {
	if p.TableSize == 0 {
		p = DefaultParams()
	}
	c := &Controller{
		eng:     eng,
		bm:      bm,
		net:     net,
		nodes:   bm.Nodes(),
		p:       p,
		pending: make([]pendingInit, bm.Nodes()),
		steps:   make([]*nodeStep, bm.Nodes()),
		byPID:   make(map[uint16]int),
	}
	bm.SetToneInitHandler(c.onToneInit)
	return c
}

// Allocate creates a tone barrier variable owned by pid, arming the listed
// participant nodes (the runtime must know participation up front; nodes
// not armed here refuse to join, Section 4.4). It allocates the backing BM
// entry and broadcasts the allocation; at the commit it installs the AllocB
// entry on every node and runs then. It returns the BM address of the
// barrier variable.
func (c *Controller) Allocate(node int, pid uint16, participants []int, then func(committed bool)) (uint32, error) {
	if len(participants) == 0 {
		return 0, fmt.Errorf("tone: barrier with no participants")
	}
	if len(c.alloc) >= c.p.TableSize {
		return 0, ErrTableFull
	}
	if c.byPID[pid] >= c.p.MaxPerPID {
		return 0, ErrPIDQuota
	}
	e := &allocEntry{pid: pid}
	for _, n := range participants {
		if n < 0 || n >= c.nodes {
			return 0, fmt.Errorf("tone: participant %d out of range", n)
		}
		if !e.armed.has(n) {
			e.armed.set(n)
			e.nArm++
		}
	}
	addr, err := c.bm.Alloc(node, pid, true, func(committed bool) {
		c.alloc = append(c.alloc, e)
		c.byPID[pid]++
		then(committed)
	})
	if err != nil {
		return 0, err
	}
	e.addr = addr
	return addr, nil
}

// AllocateBare is Allocate without simulated time, for harness setup.
func (c *Controller) AllocateBare(pid uint16, participants []int) (uint32, error) {
	if len(participants) == 0 {
		return 0, fmt.Errorf("tone: barrier with no participants")
	}
	if len(c.alloc) >= c.p.TableSize {
		return 0, ErrTableFull
	}
	if c.byPID[pid] >= c.p.MaxPerPID {
		return 0, ErrPIDQuota
	}
	addr, err := c.bm.AllocBare(pid, true)
	if err != nil {
		return 0, err
	}
	e := &allocEntry{addr: addr, pid: pid}
	for _, n := range participants {
		if !e.armed.has(n) {
			e.armed.set(n)
			e.nArm++
		}
	}
	c.alloc = append(c.alloc, e)
	c.byPID[pid]++
	return addr, nil
}

// Deallocate removes the barrier's AllocB entry everywhere and frees its BM
// entry; then runs when the free commits. Deallocating an active barrier is
// a program error.
func (c *Controller) Deallocate(node int, pid uint16, addr uint32, then func(committed bool)) error {
	if c.findActive(addr) != nil {
		return fmt.Errorf("tone: deallocate of active barrier at %d", addr)
	}
	if c.findAlloc(addr) == nil {
		return fmt.Errorf("tone: deallocate of unallocated barrier at %d", addr)
	}
	return c.bm.Free(node, pid, addr, func(committed bool) {
		c.removeAlloc(addr)
		c.byPID[pid]--
		then(committed)
	})
}

func (c *Controller) findAlloc(addr uint32) *allocEntry {
	for _, e := range c.alloc {
		if e.addr == addr {
			return e
		}
	}
	return nil
}

func (c *Controller) removeAlloc(addr uint32) {
	for i, e := range c.alloc {
		if e.addr == addr {
			c.alloc = append(c.alloc[:i], c.alloc[i+1:]...)
			return
		}
	}
}

func (c *Controller) findActive(addr uint32) *activeBarrier {
	for _, b := range c.active {
		if b.addr == addr {
			return b
		}
	}
	return nil
}

func (c *Controller) activePos(addr uint32) int {
	for i, b := range c.active {
		if b.addr == addr {
			return i
		}
	}
	return -1
}

// ActiveBarriers returns how many barriers currently share the Tone channel.
func (c *Controller) ActiveBarriers() int { return len(c.active) }
