package noc

import (
	"testing"
	"testing/quick"
)

func TestDims(t *testing.T) {
	cases := []struct{ n, cols, rows int }{
		{16, 4, 4}, {32, 8, 4}, {64, 8, 8}, {128, 16, 8}, {256, 16, 16},
		{1, 1, 1}, {2, 2, 1}, {12, 4, 3},
	}
	for _, c := range cases {
		cols, rows := Dims(c.n)
		if cols != c.cols || rows != c.rows {
			t.Errorf("Dims(%d) = %dx%d, want %dx%d", c.n, cols, rows, c.cols, c.rows)
		}
	}
}

func TestDimsInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dims(0) did not panic")
		}
	}()
	Dims(0)
}

// TestCoordRoundTrip checks the position table New builds: every node's
// coordinates round-trip to its id, and Hops between every pair of nodes is
// the Manhattan distance between their coordinates.
func TestCoordRoundTrip(t *testing.T) {
	for _, n := range []int{12, 32, 64, 128, 256} {
		m := New(n, 4)
		cols, rows := Dims(n)
		for id := 0; id < n; id++ {
			x, y := m.Coord(id)
			if x < 0 || x >= cols || y < 0 || y >= rows || y*cols+x != id {
				t.Fatalf("n=%d: Coord(%d) = (%d,%d) does not round-trip on %dx%d", n, id, x, y, cols, rows)
			}
		}
		for a := 0; a < n; a++ {
			ax, ay := m.Coord(a)
			for b := 0; b < n; b++ {
				bx, by := m.Coord(b)
				if got, want := m.Hops(a, b), abs(ax-bx)+abs(ay-by); got != want {
					t.Fatalf("n=%d: Hops(%d,%d) = %d, want %d", n, a, b, got, want)
				}
			}
		}
	}
}

func TestHops(t *testing.T) {
	m := New(64, 4) // 8x8
	cases := []struct{ a, b, hops int }{
		{0, 0, 0},
		{0, 7, 7},   // across top row
		{0, 63, 14}, // corner to corner = diameter
		{0, 9, 2},   // one right, one down
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.hops {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.hops)
		}
	}
}

func TestHopsMetricProperties(t *testing.T) {
	m := New(128, 4)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%128, int(b)%128, int(c)%128
		// Symmetry, identity, triangle inequality.
		return m.Hops(x, y) == m.Hops(y, x) &&
			m.Hops(x, x) == 0 &&
			m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatency(t *testing.T) {
	m := New(64, 4)
	if got := m.Latency(0, 63); got != 56 {
		t.Errorf("Latency corner-corner = %d, want 56", got)
	}
	// Same node still crosses the local router once.
	if got := m.Latency(5, 5); got != 4 {
		t.Errorf("Latency(5,5) = %d, want 4", got)
	}
}

func TestHopLatencyVariants(t *testing.T) {
	// Table 6 variants: hop latency 2 (FastNet) and 6 (SlowNet).
	fast := New(64, 2)
	slow := New(64, 6)
	if fast.Latency(0, 63) != 28 || slow.Latency(0, 63) != 84 {
		t.Errorf("variant latencies = %d, %d; want 28, 84",
			fast.Latency(0, 63), slow.Latency(0, 63))
	}
}

func TestControllerFor(t *testing.T) {
	m := New(64, 4)
	seen := map[int]bool{}
	for line := uint64(0); line < 16; line++ {
		ctrl, node := m.ControllerFor(line)
		if ctrl < 0 || ctrl > 3 {
			t.Fatalf("controller %d out of range", ctrl)
		}
		if node < 0 || node >= m.Nodes() {
			t.Fatalf("controller %d attaches to node %d, outside the mesh", ctrl, node)
		}
		seen[ctrl] = true
	}
	if len(seen) != 4 {
		t.Errorf("interleaving used %d controllers, want 4", len(seen))
	}
}
