package mem

import "unsafe"

// This file implements the line store that backs the memory system's
// per-line state: one lineEntry per line a point touches, holding the
// line's eight words and its directory entry.
//
// A lineEntry is 128 bytes of plain data whose zero value is a fresh line.
// Entries are handed out in touch order from 2 KB chunks of 16, which never
// move, so a caller may hold an entry across events. A chunk is one
// allocation with no pointer bitmap: the runtime zeroes it, the collector
// never scans it, and writing line state needs no write barrier.
//
// The index from line to entry holds no pointers either. Workload
// addresses come from the machine's linear allocator (a bump pointer
// starting at 1 MB), so the lines a point touches lie in one window, but
// sparsely: a Baseline+ MCS lock owns two queue-node lines per core, so
// dedup's locks span about 310,000 lines at 64 cores, of which a point
// touches 2,000 to 4,000, most of them alone in their 16-line page. The
// index is therefore two levels of uint32: a page table covering the pages
// from the lowest one touched to the highest, each naming a block of 16
// entry ids, one per line of the page. An untouched line has no entry, and
// an untouched page has no block. A line below the table's first page
// rebases the table: a copy of its uint32s, which no entry notices.
//
// Addresses outside the dense window (sparse pokes in tests, or any
// workload that fabricates far-flung addresses) fall back to a map from
// line to entry id, so correctness never depends on the allocator's layout
// — only speed does. BenchmarkLineStore in store_test.go pins the dense
// path's cost beside the maps it replaced.

// pageLines is the number of lines one block of the index covers.
const pageLines = 16

// chunkEntries is the number of entries per chunk.
const chunkEntries = 16

// maxDensePages bounds the dense window. Lines whose page lands at or
// above it fall back to the sparse map, so the window only bounds speed,
// never correctness. 1<<18 pages of 16 lines cover 256 MB of simulated
// address space, which holds the largest working set of the paper's sweeps
// (dedup on Baseline+ at 256 cores, about 80 MB of lines), with a
// worst-case page table of 1 MB.
const maxDensePages = 1 << 18

// lineWords is the number of 64-bit words per coherence line.
const lineWords = LineBytes / 8

// entryChunk is one fixed block of entries.
type entryChunk [chunkEntries]lineEntry

// pagedStore maps a line index to its *lineEntry. The zero value is empty
// and ready to use. Entry pointers are stable for the life of the store
// (chunks are never moved), so callers may hold them across events.
type pagedStore struct {
	// base is the page that pages[0] covers: the lowest page touched.
	base uint64
	// pages holds, for each page from base on, the index of its block in
	// slots, or 0 for a page with no touched line.
	pages []uint32
	// slots holds the blocks, pageLines entry ids each; an id is 0 for an
	// untouched line. Block 0 stays all zero, so an untouched page reads
	// as untouched lines with no test of its own.
	slots []uint32
	// chunks holds the entries in touch order: entry id i+1 is
	// chunks[i/chunkEntries][i%chunkEntries].
	chunks []*entryChunk
	n      uint32 // entries handed out
	// sparse holds the ids of lines past the dense window.
	sparse map[uint64]uint32
}

// get returns the entry for line, or nil if the line was never touched.
func (st *pagedStore) get(line uint64) *lineEntry {
	var id uint32
	if pi := line/pageLines - st.base; pi < uint64(len(st.pages)) {
		id = st.slots[uint64(st.pages[pi])*pageLines+line%pageLines]
	} else {
		id = st.sparse[line] // 0 for every line inside the dense window
	}
	return st.entry(id)
}

// fetch returns the entry for line, creating it on demand.
func (st *pagedStore) fetch(line uint64) *lineEntry {
	if le := st.get(line); le != nil {
		return le
	}
	return st.add(line)
}

// add creates the entry for line, which has none.
func (st *pagedStore) add(line uint64) *lineEntry {
	id := st.alloc()
	p := line / pageLines
	if p >= maxDensePages {
		if st.sparse == nil {
			st.sparse = make(map[uint64]uint32)
		}
		st.sparse[line] = id
		return st.entry(id)
	}
	if p-st.base >= uint64(len(st.pages)) {
		st.cover(p)
	}
	blk := &st.pages[p-st.base]
	if *blk == 0 {
		*blk = uint32(len(st.slots) / pageLines)
		st.slots = extend(st.slots, len(st.slots)+pageLines)
	}
	st.slots[uint64(*blk)*pageLines+line%pageLines] = id
	return st.entry(id)
}

// cover extends the page table to page p.
func (st *pagedStore) cover(p uint64) {
	switch n := len(st.pages); {
	case n == 0:
		st.base = p
		if cap(st.pages) == 0 {
			st.pages = make([]uint32, 0, 64)
			st.slots = make([]uint32, 0, 64*pageLines)
		}
		st.pages = st.pages[:1]
		st.slots = st.slots[:pageLines] // block 0
	case p >= st.base:
		st.pages = extend(st.pages, int(p-st.base)+1)
	default:
		// Rebase: the table starts at p from now on, and what it held
		// moves up by shift pages.
		shift := int(st.base - p)
		st.pages = extend(st.pages, n+shift)
		copy(st.pages[shift:], st.pages[:n])
		clear(st.pages[:shift])
		st.base = p
	}
}

// extend returns s lengthened to n, its new elements zero. It doubles the
// capacity when it must grow: the bump allocator produces ascending pages,
// so growing to exactly n would recopy the whole table once per new page.
func extend(s []uint32, n int) []uint32 {
	if n > cap(s) {
		t := make([]uint32, len(s), max(2*cap(s), n))
		copy(t, s)
		s = t
	}
	return s[:n]
}

// alloc hands out the next entry and returns its id. A chunk kept by
// reset is zeroed when its first entry is handed out.
func (st *pagedStore) alloc() uint32 {
	if c := int(st.n / chunkEntries); st.n%chunkEntries == 0 {
		if c < len(st.chunks) {
			*st.chunks[c] = entryChunk{}
		} else {
			st.chunks = append(st.chunks, new(entryChunk))
		}
	}
	st.n++
	return st.n
}

// reset empties the store for a new run, keeping its arrays: the index is
// zeroed and the chunks are handed out again by alloc. Everything past an
// index array's length is zero already (extend relies on it).
func (st *pagedStore) reset() {
	clear(st.pages)
	clear(st.slots)
	clear(st.sparse)
	*st = pagedStore{pages: st.pages[:0], slots: st.slots[:0], chunks: st.chunks, sparse: st.sparse}
}

// bytes returns the size of the arrays reset keeps: the chunks and the
// two index arrays.
func (st *pagedStore) bytes() int {
	return len(st.chunks)*int(unsafe.Sizeof(entryChunk{})) + 4*(cap(st.pages)+cap(st.slots))
}

// entry returns the entry with the given id, or nil for id 0.
func (st *pagedStore) entry(id uint32) *lineEntry {
	if id == 0 {
		return nil
	}
	id--
	return &st.chunks[id/chunkEntries][id%chunkEntries]
}

// lineEntry is all global per-line state: the line's eight 64-bit words
// and its home directory entry.
type lineEntry struct {
	words [lineWords]uint64
	dir   dirLine
}

// wordIdx returns addr's word slot within its line. Word addresses are
// 8-byte aligned throughout the simulator (the linear allocator hands out
// line- and word-aligned addresses), so the low three address bits carry
// no information.
func wordIdx(addr uint64) uint64 { return (addr >> 3) & (lineWords - 1) }
