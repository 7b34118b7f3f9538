package mem

// This file implements the paged line store that backs the memory system's
// per-line state: one lineEntry per line, holding the line's eight words
// and its directory entry. Workload addresses come from the machine's
// linear allocator (a bump pointer starting at 1 MB), so the line-index
// keyspace is small and dense, and a paged array finds an entry with one
// shift, one bounds check and one nil check.
//
// A lineEntry is 128 bytes of plain data whose zero value is a fresh line,
// stored 16 to a 2 KB page. A page is therefore one allocation with no
// pointer bitmap: the runtime zeroes it, the collector never scans it, and
// writing line state needs no write barrier. Machines are built per sweep
// point, and a Baseline+ MCS lock owns two queue-node lines per core, so a
// lock-heavy app's point touches thousands of pages; small pointer-free
// pages keep that first-touch cost low.
//
// Addresses outside the dense window (sparse pokes in tests, or any
// workload that fabricates far-flung addresses) fall back to a map of
// individually allocated entries, so correctness never depends on the
// allocator's layout — only speed does. BenchmarkLineStore in
// store_test.go pins the dense path's advantage over the maps it replaced.

// pageLines is the number of lines per page.
const pageLines = 16

// maxDensePages bounds the directly indexed page table. Lines whose page
// index lands above it fall back to the sparse map, so the dense window
// only bounds speed, never correctness. 1<<18 pages of 16 lines cover
// 256 MB of simulated address space, which holds the largest working set
// of the paper's sweeps (dedup on Baseline+ at 256 cores, about 80 MB of
// lines), with a worst-case page table of 2 MB.
const maxDensePages = 1 << 18

// lineWords is the number of 64-bit words per coherence line.
const lineWords = LineBytes / 8

// linePage is one page of the store.
type linePage [pageLines]lineEntry

// pagedStore is a paged dense map from line index to *lineEntry with a
// sparse overflow map. The zero value is empty and ready to use. Entry
// pointers are stable for the life of the store (pages and sparse entries
// are never moved), so callers may hold them across events.
type pagedStore struct {
	pages  []*linePage
	sparse map[uint64]*lineEntry
}

// get returns the entry for line, or nil if the line was never touched.
func (st *pagedStore) get(line uint64) *lineEntry {
	pi := line / pageLines
	if pi < uint64(len(st.pages)) {
		if pg := st.pages[pi]; pg != nil {
			return &pg[line%pageLines]
		}
		return nil
	}
	return st.sparse[line]
}

// fetch returns the entry for line, creating it (and its page) on demand.
func (st *pagedStore) fetch(line uint64) *lineEntry {
	pi := line / pageLines
	if pi < maxDensePages {
		if need := pi + 1; need > uint64(len(st.pages)) {
			// Grow with doubling capacity: the bump allocator produces
			// ascending page indices, so growing to exactly need would
			// recopy the whole table once per new page.
			if need <= uint64(cap(st.pages)) {
				st.pages = st.pages[:need]
			} else {
				newCap := 2 * uint64(cap(st.pages))
				if newCap < need {
					newCap = need
				}
				pages := make([]*linePage, need, newCap)
				copy(pages, st.pages)
				st.pages = pages
			}
		}
		pg := st.pages[pi]
		if pg == nil {
			pg = new(linePage)
			st.pages[pi] = pg
		}
		return &pg[line%pageLines]
	}
	e := st.sparse[line]
	if e == nil {
		if st.sparse == nil {
			st.sparse = make(map[uint64]*lineEntry)
		}
		e = new(lineEntry)
		st.sparse[line] = e
	}
	return e
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
