// Package noc models the wired 2D-mesh on-chip network of Table 1:
// XY-routed, 128-bit links, a configurable per-hop latency (4 cycles by
// default), and four memory controllers attached at the edges.
//
// The mesh is a pure latency model: it answers distance and latency
// queries for the coherence layer (internal/mem), which adds its own
// queueing and, for Baseline+, the cost of the virtual-tree multicast of
// Krishna et al. [22].
package noc

import "fmt"

// Mesh is a 2D mesh interconnect for n nodes arranged cols x rows.
type Mesh struct {
	cols, rows int
	hopLat     uint64
	// pos holds every node's position, computed once in New so that Hops,
	// which the coherence layer calls on every message, divides nothing.
	pos []position
	// mcs holds the node index nearest each memory-controller attach point.
	mcs [4]int
}

// position is a node's (x, y) on the mesh.
type position struct{ x, y int32 }

// Dims returns the mesh dimensions used for n cores: the most-square
// factorization with cols >= rows. Core counts in the paper are powers of
// two from 16 to 256 (4x4, 8x4, 8x8, 16x8, 16x16).
func Dims(n int) (cols, rows int) {
	if n <= 0 {
		panic(fmt.Sprintf("noc: invalid node count %d", n))
	}
	best := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			best = f
		}
	}
	return n / best, best
}

// New returns a mesh for n nodes with the given per-hop latency in cycles.
func New(n int, hopLatency uint64) *Mesh {
	cols, rows := Dims(n)
	m := &Mesh{cols: cols, rows: rows, hopLat: hopLatency, pos: make([]position, n)}
	for id := range m.pos {
		m.pos[id] = position{int32(id % cols), int32(id / cols)}
	}
	// Memory controllers sit at the middle of each edge (Table 1: four
	// controllers). Store the node they attach to.
	m.mcs[0] = m.node(cols/2, 0)      // north
	m.mcs[1] = m.node(cols/2, rows-1) // south
	m.mcs[2] = m.node(0, rows/2)      // west
	m.mcs[3] = m.node(cols-1, rows/2) // east
	return m
}

// Nodes returns the number of nodes in the mesh.
func (m *Mesh) Nodes() int { return m.cols * m.rows }

// HopLatency returns the per-hop latency in cycles.
func (m *Mesh) HopLatency() uint64 { return m.hopLat }

// Coord returns the (x, y) position of node id.
func (m *Mesh) Coord(id int) (x, y int) {
	p := m.pos[id]
	return int(p.x), int(p.y)
}

func (m *Mesh) node(x, y int) int { return y*m.cols + x }

// Hops returns the XY-routing hop count between nodes a and b.
func (m *Mesh) Hops(a, b int) int {
	pa, pb := m.pos[a], m.pos[b]
	return abs(int(pa.x-pb.x)) + abs(int(pa.y-pb.y))
}

// Latency returns the one-way latency in cycles between nodes a and b.
// Same-node latency is one hop (the local router crossing).
func (m *Mesh) Latency(a, b int) uint64 {
	h := m.Hops(a, b)
	if h == 0 {
		h = 1
	}
	return uint64(h) * m.hopLat
}

// ControllerFor returns the node a memory request from addr's home bank is
// routed to, interleaving lines across the four controllers.
func (m *Mesh) ControllerFor(line uint64) (ctrl int, node int) {
	c := int(line % 4)
	return c, m.mcs[c]
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
