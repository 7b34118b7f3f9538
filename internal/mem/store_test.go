package mem

import (
	"reflect"
	"testing"
	"unsafe"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

// TestLineEntryIsPlainData pins what lets the store's pages skip the
// collector: a lineEntry holds no pointers, and its zero value is a fresh
// line, so a page needs no initialization beyond the runtime's zeroing.
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

	if got := unsafe.Sizeof(linePage{}); got != 2048 {
		t.Errorf("a page is %d bytes, want 2048 (16 entries of 128 B)", got)
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

func TestPagedStoreDenseAndSparse(t *testing.T) {
	var st pagedStore

	if st.get(100) != nil {
		t.Error("get of untouched line is non-nil")
	}
	e := st.fetch(100)
	e.words[3] = 42
	if got := st.get(100); got != e {
		t.Error("get after fetch returns a different entry (pointer instability)")
	}
	// Neighbors on the same page exist but are independent.
	if n := st.get(101); n == nil || n.words[3] != 0 {
		t.Errorf("neighbor entry not independent: %+v", n)
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
	eng.Go("r", func(p *sim.Proc) {
		got = s.Read(p, 0, sparseAddr)
		s.Write(p, 1, sparseAddr, 123)
		got2 = s.Read(p, 1, sparseAddr)
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

// BenchmarkLineStore pins the dense paged store's advantage over the hash
// maps it replaced (words and directory entries keyed by address or
// line). The access pattern models a transaction's hot lookups: a
// directory fetch plus a word read/write over a kernel-sized working set,
// with the 90%-reread locality a barrier-driven kernel exhibits.
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
