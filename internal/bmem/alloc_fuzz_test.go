package bmem

import (
	"errors"
	"testing"

	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// scanLowestRun is the allocator's oracle: the first entry of the lowest
// run of n free entries, found by a full scan from index 0, or -1.
func scanLowestRun(b *BM, n int) int {
	run := 0
	for i := 0; i < b.p.Entries; i++ {
		if ok, _ := b.Allocated(uint32(i)); ok {
			run = 0
			continue
		}
		run++
		if run == n {
			return i - n + 1
		}
	}
	return -1
}

// FuzzBMAllocLowestFree drives the four allocation calls and frees through
// one small Broadcast Memory and checks that every allocation returns what
// a full scan from index 0 returns, whatever the allocation cursor has
// seen. Each byte of ops is one operation; op>>3 is its argument:
//
//	op%6 == 0: AllocBare
//	op%6 == 1: AllocBareContiguous of 1 + arg%4 entries
//	op%6 == 2: Alloc from node arg%nodes
//	op%6 == 3: AllocContiguous of 1 + arg%4 entries
//	op%6 == 4: Free of the (arg mod count)-th allocated entry; the free
//	           takes effect when its broadcast commits
//	op%6 == 5: run the engine until every broadcast in flight commits
func FuzzBMAllocLowestFree(f *testing.F) {
	const entries, nodes = 16, 4
	fill := make([]byte, entries)
	// Fill the memory, free the lowest entry, commit, allocate again.
	f.Add(append(fill, 4, 5, 0))
	// The same through the timed calls, freeing an entry in the middle of
	// a contiguous run.
	f.Add([]byte{1 | 3<<3, 3 | 3<<3, 2, 2 | 1<<3, 4 | 5<<3, 4 | 1<<3, 5, 3 | 1<<3, 0, 1, 2})
	f.Add(append(fill, 4|7<<3, 4|3<<3, 5, 1|1<<3, 5, 4, 5, 3|3<<3))
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := sim.NewEngine(1)
		net := wireless.New(eng, nodes, wireless.DefaultParams())
		b := New(eng, net, nodes, Params{Entries: entries, RT: 2, PageEntries: 8})
		noop := func(bool) {}
		for i, op := range ops {
			arg, kind := int(op>>3), op%6
			switch kind {
			case 4:
				var held []uint32
				for a := uint32(0); a < entries; a++ {
					if ok, _ := b.Allocated(a); ok {
						held = append(held, a)
					}
				}
				if len(held) > 0 {
					if err := b.Free(0, 1, held[arg%len(held)], noop); err != nil {
						t.Fatalf("op %d: Free: %v", i, err)
					}
				}
				continue
			case 5:
				if err := eng.Run(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				continue
			}
			n := 1
			if kind == 1 || kind == 3 {
				n = 1 + arg%4
			}
			want := scanLowestRun(b, n)
			var addr uint32
			var err error
			switch kind {
			case 0:
				addr, err = b.AllocBare(1, false)
			case 1:
				addr, err = b.AllocBareContiguous(1, n)
			case 2:
				addr, err = b.Alloc(arg%nodes, 1, false, noop)
			case 3:
				addr, err = b.AllocContiguous(arg%nodes, 1, n, noop)
			}
			switch {
			case want < 0 && !errors.Is(err, ErrFull):
				t.Fatalf("op %d (kind %d, n %d): got %d, %v; a full scan finds no free run", i, kind, n, addr, err)
			case want >= 0 && (err != nil || int(addr) != want):
				t.Fatalf("op %d (kind %d, n %d): got %d, %v; a full scan finds %d", i, kind, n, addr, err, want)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		free := 0
		for a := uint32(0); a < entries; a++ {
			if ok, _ := b.Allocated(a); !ok {
				free++
			}
		}
		if got := b.FreeEntries(); got != free {
			t.Fatalf("FreeEntries = %d, a full count finds %d", got, free)
		}
	})
}
