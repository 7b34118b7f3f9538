package mem

// This file implements the paged dense line store that backs the memory
// system's per-line state (word values and directory entries). The
// previous implementation kept hash maps keyed by line or word address;
// profiles put their hashing and probing at ~5% of a Baseline run.
// Workload addresses come from the machine's linear allocator (a bump
// pointer starting at 1 MB), so the line-index keyspace is small and
// dense — exactly what a paged array handles with one shift, one bounds
// check and one nil check per lookup.
//
// Addresses outside the dense window (sparse pokes in tests, or any
// workload that fabricates far-flung addresses) fall back to a map of
// individually allocated entries, so correctness never depends on the
// allocator's layout — only speed does. BenchmarkLineStore in
// store_test.go pins the dense path's advantage over the map it replaced.

// defaultPageShift is log2 of the lines per page when a store does not
// choose its own geometry.
const defaultPageShift = 9

// maxDensePages bounds the directly indexed page table of every store.
// Lines whose page index lands above it fall back to the sparse map, so
// the dense window only bounds speed, never correctness. At the default
// shift, 1<<15 pages cover 1 GB of simulated address space — far beyond
// the linear allocator's reach — with a worst-case page-pointer table of
// 256 KB.
const maxDensePages = 1 << 15

// lineWords is the number of 64-bit words per coherence line.
const lineWords = LineBytes / 8

// pagedStore is a paged dense map from line index to *T with a sparse
// overflow map. The zero value is empty and ready to use. Entry pointers
// are stable for the life of the store (pages and sparse entries are never
// moved), so callers may hold them across events.
//
// Page geometry is per store (shift, log2 lines per page): machines are
// built per sweep point, so a freshly touched page is zeroed memory on
// that point's critical path — a store with large entries chooses small
// pages to keep first-touch cost down, while lookups stay one shift + two
// indexed loads either way.
type pagedStore[T any] struct {
	pages  []*storePage[T]
	sparse map[uint64]*T
	// init, when non-nil, runs once on every entry of a freshly allocated
	// page (and on each sparse entry) before first use.
	init func(*T)
	// shift is log2 of the lines per page (0 selects defaultPageShift).
	shift uint
}

type storePage[T any] struct {
	lines []T
}

func (st *pagedStore[T]) pageShift() uint {
	if st.shift == 0 {
		return defaultPageShift
	}
	return st.shift
}

// get returns the entry for line, or nil if the line was never touched.
func (st *pagedStore[T]) get(line uint64) *T {
	sh := st.pageShift()
	pi := line >> sh
	if pi < uint64(len(st.pages)) {
		if pg := st.pages[pi]; pg != nil {
			return &pg.lines[line&(1<<sh-1)]
		}
		return nil
	}
	return st.sparse[line]
}

// fetch returns the entry for line, creating it (and its page) on demand.
func (st *pagedStore[T]) fetch(line uint64) *T {
	sh := st.pageShift()
	pi := line >> sh
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
				pages := make([]*storePage[T], need, newCap)
				copy(pages, st.pages)
				st.pages = pages
			}
		}
		pg := st.pages[pi]
		if pg == nil {
			pg = &storePage[T]{lines: make([]T, 1<<sh)}
			if st.init != nil {
				for i := range pg.lines {
					st.init(&pg.lines[i])
				}
			}
			st.pages[pi] = pg
		}
		return &pg.lines[line&(1<<sh-1)]
	}
	e := st.sparse[line]
	if e == nil {
		if st.sparse == nil {
			st.sparse = make(map[uint64]*T)
		}
		e = new(T)
		if st.init != nil {
			st.init(e)
		}
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
