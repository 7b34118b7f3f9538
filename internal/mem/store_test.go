package mem

import (
	"reflect"
	"testing"
	"unsafe"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

// TestLineEntryIsPlainData pins what lets the store's chunks skip the
// collector: a lineEntry holds no pointers, and its zero value is a fresh
// line, so a chunk needs no initialization beyond the runtime's zeroing.
func TestLineEntryIsPlainData(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Func, reflect.Interface, reflect.Chan, reflect.String:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("lineEntry", reflect.TypeOf(lineEntry{}))

	if got := unsafe.Sizeof(entryChunk{}); got != 2048 {
		t.Errorf("a chunk is %d bytes, want 2048 (16 entries of 128 B)", got)
	}

	var d dirLine
	if d.owner() != -1 {
		t.Errorf("zero entry owner = %d, want -1", d.owner())
	}
	if !d.sharers.empty() || d.inL2 || d.lock != (fifoLock{}) {
		t.Errorf("zero entry is not a fresh line: %+v", d)
	}
	for _, core := range []int{0, 5, 255, -1} {
		d.setOwner(core)
		if d.owner() != core {
			t.Errorf("setOwner(%d) reads back %d", core, d.owner())
		}
	}
}

// TestPagedStoreDenseAndSparse pins what the store allocates: an entry for
// each line touched and for no other, an index that starts at the lowest
// page touched, and a map for lines past the dense window.
func TestPagedStoreDenseAndSparse(t *testing.T) {
	var st pagedStore
	const first = (1 << 20) / LineBytes // the allocator's first line

	if st.get(first) != nil {
		t.Error("get of untouched line is non-nil")
	}
	e := st.fetch(first)
	e.words[3] = 42
	if got := st.get(first); got != e {
		t.Error("get after fetch returns a different entry (pointer instability)")
	}
	if st.base != first/pageLines || len(st.pages) != 1 {
		t.Errorf("index covers pages [%d, %d), want only page %d",
			st.base, st.base+uint64(len(st.pages)), first/pageLines)
	}
	// An untouched neighbour on the same page has no entry, and touching
	// it gives an independent one.
	if n := st.get(first + 1); n != nil {
		t.Errorf("untouched neighbour has an entry: %+v", n)
	}
	if n := st.fetch(first + 1); n == e || n.words[3] != 0 {
		t.Errorf("neighbour entry not independent: %+v", n)
	}

	// A line below the lowest one touched rebases the index; the entries
	// already handed out keep their place.
	low := st.fetch(first - 129)
	if st.get(first) != e || e.words[3] != 42 || st.get(first-129) != low {
		t.Error("rebase lost or moved an entry")
	}
	if st.base != (first-129)/pageLines || st.get(first-128) != nil {
		t.Errorf("after the rebase the index starts at page %d, want %d", st.base, (first-129)/pageLines)
	}

	// A line far beyond the dense window lands in the sparse map.
	huge := uint64(maxDensePages)*pageLines + 12345
	s := st.fetch(huge)
	s.words[0] = 7
	if got := st.get(huge); got != s {
		t.Error("sparse get after fetch returns a different entry")
	}
	if len(st.pages) >= maxDensePages {
		t.Errorf("sparse fetch grew the dense page table to %d pages", len(st.pages))
	}
	// The untouched dense/sparse boundary neighbors stay absent.
	if st.get(huge+1) != nil {
		t.Error("sparse neighbor materialized spontaneously")
	}
	if st.n != 4 {
		t.Errorf("4 lines touched, %d entries handed out", st.n)
	}
}

// TestLineStoreResetKeepsChunks: a reset store has no entries, hands out
// zeroed entries from the chunks it kept, and refills without allocating.
func TestLineStoreResetKeepsChunks(t *testing.T) {
	const first = (1 << 20) / LineBytes
	var st pagedStore
	fill := func() {
		for i := uint64(0); i < 200; i++ {
			le := st.fetch(first + 129*i)
			le.words[3] = i + 1
			le.dir.inL2 = true
		}
		st.fetch(maxDensePages*pageLines + 5).words[0] = 9
	}
	fill()
	kept := map[*entryChunk]bool{}
	for _, c := range st.chunks {
		kept[c] = true
	}
	st.reset()
	for i := uint64(0); i < 200; i++ {
		if st.get(first+129*i) != nil {
			t.Fatalf("reset store still holds line %d", first+129*i)
		}
	}
	if st.get(maxDensePages*pageLines+5) != nil {
		t.Fatal("reset store still holds a sparse line")
	}
	le := st.fetch(first + 1)
	if *le != (lineEntry{}) {
		t.Fatalf("entry from a kept chunk is not zero: %+v", *le)
	}
	if !kept[st.chunks[0]] {
		t.Error("reset store did not hand out a kept chunk")
	}
	if allocs := testing.AllocsPerRun(10, func() { st.reset(); fill() }); allocs != 0 {
		t.Errorf("refilling a reset store allocated %v objects, want 0", allocs)
	}
}

// TestSystemSparseAddressFallback drives the full memory system at an
// address far outside the linear allocator's range: correctness must not
// depend on the dense window.
func TestSystemSparseAddressFallback(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, noc.New(4, 2), DefaultParams(4))
	// Past the dense window.
	sparseAddr := uint64(maxDensePages*pageLines)*LineBytes + 0x40

	s.Poke(sparseAddr, 99)
	if got := s.Peek(sparseAddr); got != 99 {
		t.Fatalf("Peek(sparse) = %d, want 99", got)
	}
	var got, got2 uint64
	goTask(eng, "r", func(done func()) {
		s.ReadAsync(0, sparseAddr, func(v uint64) {
			got = v
			write(s, 1, sparseAddr, 123, func() {
				s.ReadAsync(1, sparseAddr, func(v uint64) {
					got2 = v
					done()
				})
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 || got2 != 123 {
		t.Errorf("sparse Read/Write = %d, %d; want 99, 123", got, got2)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestWordIdxAliasing documents the dense store's word granularity: the
// simulator's addresses are 8-byte aligned (the machine allocator hands
// out line- and word-aligned addresses), and every word of a line is
// independent.
func TestWordIdxAliasing(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, noc.New(4, 2), DefaultParams(4))
	base := uint64(1 << 20)
	for i := uint64(0); i < lineWords; i++ {
		s.Poke(base+i*8, 100+i)
	}
	for i := uint64(0); i < lineWords; i++ {
		if got := s.Peek(base + i*8); got != 100+i {
			t.Errorf("word %d = %d, want %d", i, got, 100+i)
		}
	}
}

// BenchmarkLineStore pins the line store's cost beside the hash maps it
// replaced (words and directory entries keyed by address or line). The
// paged and map cases model a transaction's hot lookups: a directory fetch
// plus a word read/write over a kernel-sized working set, with the
// 90%-reread locality a barrier-driven kernel exhibits. The sparse case
// models a lock-heavy Baseline+ point: first touches of lines 129 apart,
// like MCS queue nodes, in a fresh store every 2048 lines, so its B/op is
// what the store allocates per line touched.
func BenchmarkLineStore(b *testing.B) {
	// Working set: ~2000 lines starting at the allocator base, like a
	// 256-core TightLoop.
	const lines = 2048
	const base = (1 << 20) / LineBytes

	b.Run("paged", func(b *testing.B) {
		var st pagedStore
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			line := base + uint64(i*37%lines)
			le := st.fetch(line)
			le.words[wordIdx(line*LineBytes)] = sink
			sink += le.words[0] + uint64(le.dir.owner())
		}
		_ = sink
	})
	b.Run("sparse", func(b *testing.B) {
		var st pagedStore
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			if i%lines == 0 {
				st = pagedStore{}
			}
			line := base + 129*uint64(i*37%lines)
			le := st.fetch(line)
			le.words[wordIdx(line*LineBytes)] = sink
			sink += le.words[0] + uint64(le.dir.owner())
		}
		_ = sink
	})
	b.Run("map", func(b *testing.B) {
		// The seed implementation: one map per concern.
		dir := make(map[uint64]*dirLine)
		words := make(map[uint64]uint64)
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			line := base + uint64(i*37%lines)
			d, ok := dir[line]
			if !ok {
				d = &dirLine{}
				dir[line] = d
			}
			addr := line * LineBytes
			words[addr] = sink
			sink += words[addr&^uint64(LineBytes-1)] + uint64(d.owner())
		}
		_ = sink
	})
}
