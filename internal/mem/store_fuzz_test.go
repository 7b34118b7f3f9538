package mem

import (
	"testing"

	"wisync/internal/sim"
)

// storeOracle runs a fetch/get stream against pagedStore and a reference
// map. Each operation is three bytes: the first picks fetch or get (bit 0)
// and the kind of line (bits 1-2), the second the line within its kind,
// the third the word a fetch writes. The kinds are dense lines around the
// allocator's first line, lines 129 apart like MCS queue nodes (they start
// below the dense ones and run far above them), lines past the dense
// window, and lines far below the allocator. Nearly every stream touches a
// line below the first one it touched.
//
// Properties: a repeated fetch returns the same pointer, a new fetch a
// fresh entry of its own; get is nil exactly for lines never fetched; a
// word written through one pointer reads back through every later get; and
// the store hands out one entry per line fetched.
func storeOracle(t *testing.T, ops []byte) {
	const first = (1 << 20) / LineBytes
	var st pagedStore
	ref := make(map[uint64]*lineEntry)
	words := make(map[uint64][lineWords]uint64)
	owner := make(map[*lineEntry]uint64)
	check := func(line uint64) {
		got, want := st.get(line), ref[line]
		if got != want {
			t.Fatalf("get(%d) = %p, reference %p", line, got, want)
		}
		if got != nil && got.words != words[line] {
			t.Fatalf("line %d reads %v, written %v", line, got.words, words[line])
		}
	}
	for i := 0; i+3 <= len(ops); i += 3 {
		op, x, v := ops[i], uint64(ops[i+1]), ops[i+2]
		var line uint64
		switch op >> 1 & 3 {
		case 0:
			line = first + x
		case 1:
			line = first - 129*64 + 129*x
		case 2:
			line = maxDensePages*pageLines + 7*x
		case 3:
			line = x
		}
		if op&1 == 0 {
			check(line)
			continue
		}
		le := st.fetch(line)
		if want, ok := ref[line]; ok {
			if le != want {
				t.Fatalf("fetch(%d) moved: %p, first %p", line, le, want)
			}
		} else {
			if other, ok := owner[le]; ok {
				t.Fatalf("fetch(%d) returned line %d's entry", line, other)
			}
			if *le != (lineEntry{}) {
				t.Fatalf("fetch(%d) returned a used entry: %+v", line, *le)
			}
			ref[line], owner[le] = le, line
		}
		w := words[line]
		w[v%lineWords] = uint64(i)<<8 | uint64(v)
		words[line] = w
		le.words = w
		check(line)
	}
	for line := range ref {
		check(line)
	}
	if int(st.n) != len(ref) {
		t.Fatalf("%d lines fetched, %d entries handed out", len(ref), st.n)
	}
}

// FuzzLineStoreMatchesMap fuzzes pagedStore against a map from line to
// entry. The seeds cover a rebase below the first line touched, MCS-stride
// lines on both sides of it, the sparse map, and gets of lines never
// touched beside touched ones.
func FuzzLineStoreMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 200, 3, 1, 5, 4, 0, 200, 0, 0, 5, 0})    // rebase below the first line
	f.Add([]byte{3, 64, 1, 3, 10, 2, 3, 200, 3, 2, 64, 0})   // MCS-stride lines, both sides
	f.Add([]byte{5, 1, 1, 5, 2, 2, 4, 1, 0, 4, 3, 0})        // past the dense window
	f.Add([]byte{1, 9, 1, 0, 8, 0, 0, 10, 0, 7, 3, 7, 0, 9}) // neighbours, far below
	f.Add([]byte{3, 255, 1, 1, 0, 2, 7, 0, 3, 1, 255, 4, 0}) // descending kinds
	f.Fuzz(storeOracle)
}

// TestLineStoreRandomOracle runs storeOracle over seeded random streams on
// every plain `go test` run.
func TestLineStoreRandomOracle(t *testing.T) {
	rng := sim.NewRand(20261019)
	for trial := 0; trial < 50; trial++ {
		ops := make([]byte, 3*(64+rng.Intn(512)))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		storeOracle(t, ops)
	}
}
