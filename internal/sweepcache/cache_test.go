package sweepcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(d string, seed uint64) Key { return Key{Digest: d, Seed: seed} }

func TestDoHitMissAndSeedSiblings(t *testing.T) {
	c := New(8)
	var computes atomic.Int32
	compute := func(row string) func() (string, error) {
		return func() (string, error) { computes.Add(1); return row, nil }
	}
	row, cached, err := c.Do(key("a", 1), compute("row-a1"))
	if err != nil || cached || row != "row-a1" {
		t.Fatalf("first Do: row=%q cached=%v err=%v", row, cached, err)
	}
	row, cached, err = c.Do(key("a", 1), compute("never"))
	if err != nil || !cached || row != "row-a1" {
		t.Fatalf("second Do: row=%q cached=%v err=%v", row, cached, err)
	}
	// Same digest, different seed is a distinct point.
	if row, cached, _ = c.Do(key("a", 2), compute("row-a2")); cached || row != "row-a2" {
		t.Fatalf("seed sibling served from wrong entry: row=%q cached=%v", row, cached)
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("computed %d times, want 2", got)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 2 || s.Errors != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	ok := func(row string) func() (string, error) {
		return func() (string, error) { return row, nil }
	}
	c.Do(key("a", 1), ok("A"))
	c.Do(key("b", 1), ok("B"))
	// Touch A so B is the LRU victim when C arrives.
	if _, cached, _ := c.Do(key("a", 1), ok("never")); !cached {
		t.Fatal("A fell out of a non-full cache")
	}
	c.Do(key("c", 1), ok("C"))
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Capacity != 2 {
		t.Fatalf("stats %+v", s)
	}
	if _, cached, err := c.Do(key("a", 1), func() (string, error) {
		return "", errors.New("recently-used A recomputed")
	}); err != nil || !cached {
		t.Fatalf("recently-used A was evicted: cached=%v err=%v", cached, err)
	}
	if _, cached, _ := c.Do(key("b", 1), ok("B")); cached {
		t.Fatal("LRU victim B survived eviction")
	}
}

// TestSingleflight pins that concurrent Do calls for one key run the
// computation once: one caller computes, the rest join in-flight and are
// reported as cached.
func TestSingleflight(t *testing.T) {
	c := New(8)
	var computes atomic.Int32
	release := make(chan struct{})
	k := key("hot", 1)
	// First caller blocks inside compute until released.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		c.Do(k, func() (string, error) {
			computes.Add(1)
			<-release
			return "hot-row", nil
		})
	}()
	// Wait until the computation is registered in-flight.
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	const waiters = 16
	var wg sync.WaitGroup
	rows := make([]string, waiters)
	cachedFlags := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], cachedFlags[i], _ = c.Do(k, func() (string, error) {
				computes.Add(1)
				return "should-not-run", nil
			})
		}(i)
	}
	// Let every waiter either join in-flight or (late arrivals) hit the
	// completed entry; both count as cached.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-firstDone
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times under concurrency, want 1", got)
	}
	for i := 0; i < waiters; i++ {
		if rows[i] != "hot-row" || !cachedFlags[i] {
			t.Fatalf("waiter %d: row=%q cached=%v", i, rows[i], cachedFlags[i])
		}
	}
	s := c.Stats()
	if s.InflightWaits+s.Hits != waiters || s.Misses != 1 {
		t.Fatalf("stats %+v: want %d waits+hits, 1 miss", s, waiters)
	}
}

func TestErrorsNeverCached(t *testing.T) {
	c := New(8)
	k := key("flaky", 1)
	boom := errors.New("boom")
	attempts := 0
	compute := func() (string, error) {
		attempts++
		if attempts < 3 {
			return "", boom
		}
		return "finally", nil
	}
	for i := 0; i < 2; i++ {
		if _, cached, err := c.Do(k, compute); !errors.Is(err, boom) || cached {
			t.Fatalf("attempt %d: cached=%v err=%v", i, cached, err)
		}
	}
	row, cached, err := c.Do(k, compute)
	if err != nil || cached || row != "finally" {
		t.Fatalf("third attempt: row=%q cached=%v err=%v", row, cached, err)
	}
	if _, cached, _ := c.Do(k, compute); !cached {
		t.Fatal("successful result was not cached")
	}
	s := c.Stats()
	if s.Errors != 2 || s.Misses != 3 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestComputePanicBecomesError(t *testing.T) {
	c := New(8)
	_, cached, err := c.Do(key("p", 1), func() (string, error) { panic("kaboom") })
	if err == nil || cached {
		t.Fatalf("panic not converted: cached=%v err=%v", cached, err)
	}
	// The key is not poisoned: a later compute succeeds.
	row, _, err := c.Do(key("p", 1), func() (string, error) { return "fine", nil })
	if err != nil || row != "fine" {
		t.Fatalf("key poisoned after panic: row=%q err=%v", row, err)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines across
// overlapping keys; run under -race this pins the locking discipline.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("d%d", i%24), uint64(g%2))
				want := fmt.Sprintf("row-%d-%d", i%24, g%2)
				row, _, err := c.Do(k, func() (string, error) { return want, nil })
				if err != nil || row != want {
					t.Errorf("Do(%v): row=%q err=%v", k, row, err)
					return
				}
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries > s.Capacity {
		t.Fatalf("occupancy beyond capacity: %+v", s)
	}
}
