// Package sweepcache is the content-addressed result store behind the
// sweep service: completed sweep points keyed by (config digest, seed),
// with LRU eviction, single-flight deduplication of concurrent identical
// points, and hit/miss/in-flight metrics.
//
// The cache is only sound because every sweep point is deterministic: the
// same digest and seed always produce the same row (pinned end to end by
// the golden-conformance suites), so a cached row is indistinguishable
// from a recomputed one and repeated or overlapping sweeps from many
// clients cost near zero. Errors are never cached — a failed computation
// is retried on the next request for the same key.
//
// An optional durable tier (NewDisk) persists every completed row as a
// self-checksummed file, so a restarted process serves previously computed
// points warm instead of recomputing them; see disk.go for the format and
// the corruption guarantees.
package sweepcache

import (
	"container/list"
	"fmt"
	"sync"
)

// Key addresses one sweep point: the content digest of its canonical
// configuration (workload, parameters, machine — see
// harness.PointSpec.Digest) plus the seed, kept separate so seed sweeps
// over one configuration read as siblings of one digest.
type Key struct {
	Digest string
	Seed   uint64
}

// Stats are the cache's counters, read through Cache.Stats.
type Stats struct {
	// Hits counts Do calls served from a completed entry; Misses counts
	// calls that computed (a memory miss the disk tier served counts as a
	// DiskHit instead); InflightWaits counts calls that joined another
	// caller's in-progress computation of the same key.
	Hits, Misses, InflightWaits uint64
	// Evictions counts entries dropped by the LRU bound; Errors counts
	// computations that returned an error (never cached); InflightErrors
	// counts waiters that joined a computation which then failed — with
	// fault-injected or deadline-bounded computes these inherit an error
	// (possibly another job's abort) and should retry.
	Evictions, Errors, InflightErrors uint64
	// Entries and Capacity describe the store's current occupancy.
	Entries, Capacity int
	// Disk-tier counters, all zero for a memory-only cache (New). DiskHits
	// counts Do calls served from a verified disk entry after a memory
	// miss; DiskWrites counts entries durably stored; DiskWriteErrors
	// counts failed stores (the row is still served and cached in memory);
	// CorruptEntries counts damaged entries detected, deleted, and
	// recomputed — at preload or on read — never served; Preloaded counts
	// entries verified and indexed at construction time.
	DiskHits, DiskWrites, DiskWriteErrors uint64
	CorruptEntries, Preloaded             uint64
}

// call is one in-flight computation; waiters block on done.
type call struct {
	done chan struct{}
	row  string
	err  error
}

// Cache is a bounded, concurrency-safe result store. The zero value is
// not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *entry
	items    map[Key]*list.Element
	inflight map[Key]*call
	stats    Stats
	disk     *diskTier // nil for a memory-only cache
}

type entry struct {
	key Key
	row string
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
	}
}

// NewDisk returns a cache bounded to capacity memory entries and backed by
// a durable disk tier rooted at dir (created if absent). Existing entries
// are verified against their embedded checksums and preloaded into the
// memory index — a warm restart serves them as hits — while corrupt or
// truncated entries are deleted and counted, never served.
func NewDisk(capacity int, dir string) (*Cache, error) {
	c := New(capacity)
	d, err := newDiskTier(dir)
	if err != nil {
		return nil, err
	}
	c.disk = d
	// Preload runs before the cache is shared, but insert expects c.mu.
	c.mu.Lock()
	loaded, corrupt := d.preload(c.insert)
	c.stats.Preloaded = uint64(loaded)
	c.stats.CorruptEntries = uint64(corrupt)
	c.mu.Unlock()
	return c, nil
}

// Do returns the row for key, computing it at most once across all
// concurrent callers: a completed entry is returned immediately (cached
// true), a second caller for a key someone is already computing waits for
// that computation (cached true — it cost this caller nothing; cached
// false if it failed, since no result was stored), and otherwise compute
// runs on the calling goroutine and its result is stored (cached false).
// A compute panic is converted to an error for every waiter, so one
// poisoned point cannot wedge or crash the cache.
func (c *Cache) Do(key Key, compute func() (string, error)) (row string, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		row = el.Value.(*entry).row
		c.mu.Unlock()
		return row, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.stats.InflightWaits++
		c.mu.Unlock()
		<-cl.done
		if cl.err != nil {
			// The joined computation failed (it may have been aborted by
			// the other caller's deadline). Nothing was cached, so report
			// cached false: the waiter inherited an error, not a result.
			c.mu.Lock()
			c.stats.InflightErrors++
			c.mu.Unlock()
			return cl.row, false, cl.err
		}
		return cl.row, true, nil
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	// Disk lookup happens inside the single-flight window: concurrent
	// callers for the same key join this call, so the file is read (and a
	// corrupt entry recomputed) at most once across all of them.
	var fromDisk, corrupt bool
	if c.disk != nil {
		var row string
		if row, fromDisk, corrupt = c.disk.load(key); fromDisk {
			cl.row = row
		}
	}
	if !fromDisk {
		c.mu.Lock()
		c.stats.Misses++
		if corrupt {
			c.stats.CorruptEntries++
		}
		c.mu.Unlock()
		cl.row, cl.err = runCompute(compute)
		if cl.err == nil && c.disk != nil {
			// Store before publishing so a crash right after callers saw the
			// row is the only window where it isn't durable yet — and then
			// it is simply recomputed on the next request.
			werr := c.disk.store(key, cl.row)
			c.mu.Lock()
			if werr != nil {
				c.stats.DiskWriteErrors++
			} else {
				c.stats.DiskWrites++
			}
			c.mu.Unlock()
		}
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.insert(key, cl.row)
		if fromDisk {
			c.stats.DiskHits++
		}
	} else {
		c.stats.Errors++
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.row, fromDisk, cl.err
}

// runCompute shields the cache from a panicking computation.
func runCompute(compute func() (string, error)) (row string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweepcache: compute panicked: %v", r)
		}
	}()
	return compute()
}

// insert stores a completed row, evicting from the LRU tail. Caller holds
// c.mu.
func (c *Cache) insert(key Key, row string) {
	if el, ok := c.items[key]; ok {
		// Do never computes a stored key, but preload can meet two file
		// names that parse to one key (a seed written "-s01" beside
		// "-s1"); both load the canonical file, so keep the existing
		// entry.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, row: row})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Capacity = c.capacity
	return s
}
