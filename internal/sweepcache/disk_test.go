package sweepcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func diskCache(t *testing.T, capacity int, dir string) *Cache {
	t.Helper()
	c, err := NewDisk(capacity, dir)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return c
}

func mustDo(t *testing.T, c *Cache, key Key, row string) (string, bool) {
	t.Helper()
	got, cached, err := c.Do(key, func() (string, error) { return row, nil })
	if err != nil {
		t.Fatalf("Do(%v): %v", key, err)
	}
	return got, cached
}

// entryPath locates the stored file for a key, via the same naming the
// tier uses.
func entryPath(dir string, key Key) string {
	return filepath.Join(dir, fileName(key))
}

// TestDiskFileNameRoundTrip pins that every digest — the hex digests
// produced in practice and hostile strings that could escape the cache
// directory — round-trips through the on-disk name unchanged.
func TestDiskFileNameRoundTrip(t *testing.T) {
	for _, k := range []Key{
		{Digest: "a3f9", Seed: 0},
		{Digest: "deadbeefDEADBEEF00", Seed: 18446744073709551615},
		{Digest: "../../../etc/passwd", Seed: 7},
		{Digest: "with-s42-infix", Seed: 42},
		{Digest: "xalready-prefixed", Seed: 1},
		{Digest: "", Seed: 3},
	} {
		name := fileName(k)
		if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
			t.Fatalf("fileName(%+v) = %q escapes the cache dir", k, name)
		}
		got, ok := parseFileName(name)
		if !ok || got != k {
			t.Fatalf("parseFileName(fileName(%+v)) = %+v, %v", k, got, ok)
		}
	}
	if _, ok := parseFileName("garbage"); ok {
		t.Fatal("parseFileName accepted a non-entry name")
	}
}

// TestDiskPersistAndWarmRestart pins hit parity across a restart: rows
// computed by one cache instance are served as hits — byte-identical,
// compute never invoked — by a fresh instance over the same directory.
func TestDiskPersistAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, 8, dir)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = Key{Digest: fmt.Sprintf("d%d", i), Seed: uint64(i)}
		mustDo(t, c, keys[i], fmt.Sprintf("row-%d", i))
	}
	if s := c.Stats(); s.DiskWrites != 5 || s.DiskWriteErrors != 0 {
		t.Fatalf("writes: %+v", s)
	}

	// "Restart": a new cache over the same directory.
	c2 := diskCache(t, 8, dir)
	if s := c2.Stats(); s.Preloaded != 5 || s.CorruptEntries != 0 || s.Entries != 5 {
		t.Fatalf("preload: %+v", s)
	}
	for i, k := range keys {
		row, _, err := c2.Do(k, func() (string, error) {
			return "", fmt.Errorf("warm restart recomputed %v", k)
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("row-%d", i); row != want {
			t.Fatalf("warm row for %v = %q, want %q", k, row, want)
		}
	}
	// All five were memory hits off the preloaded index — full parity with
	// the pre-restart cache.
	if s := c2.Stats(); s.Hits != 5 || s.Misses != 0 {
		t.Fatalf("warm stats: %+v", s)
	}
}

// TestDiskHitIsNotAMiss pins what Misses counts: computations. A row the
// disk tier serves after a memory miss is a DiskHit, not a Miss.
func TestDiskHitIsNotAMiss(t *testing.T) {
	c := diskCache(t, 1, t.TempDir())
	a, b := Key{Digest: "a", Seed: 1}, Key{Digest: "b", Seed: 1}
	mustDo(t, c, a, "row-a")
	mustDo(t, c, b, "row-b") // evicts a from memory; a stays on disk
	row, _, err := c.Do(a, func() (string, error) {
		return "", fmt.Errorf("recomputed %v, which is on disk", a)
	})
	if err != nil || row != "row-a" {
		t.Fatalf("read back %v = %q, %v", a, row, err)
	}
	if s := c.Stats(); s.Misses != 2 || s.DiskHits != 1 || s.Hits != 0 {
		t.Fatalf("2 computes and 1 disk hit read as %+v", s)
	}
}

// TestDiskCorruptionBitFlip pins the self-checksum: a single flipped
// payload bit is detected on read, the entry deleted, the row recomputed
// and re-stored, and the corruption counted. The damaged row is never
// served.
func TestDiskCorruptionBitFlip(t *testing.T) {
	dir := t.TempDir()
	key := Key{Digest: "abc", Seed: 1}
	c := diskCache(t, 4, dir)
	mustDo(t, c, key, "good-row")

	path := entryPath(dir, key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh instance must not trust the damaged entry at preload...
	c2 := diskCache(t, 4, dir)
	if s := c2.Stats(); s.Preloaded != 0 || s.CorruptEntries != 1 || s.Entries != 0 {
		t.Fatalf("preload over corrupt entry: %+v", s)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not deleted: %v", err)
	}
	// ...and the next request recomputes and re-stores it durably.
	row, cached := mustDo(t, c2, key, "good-row")
	if row != "good-row" || cached {
		t.Fatalf("recompute after corruption: row=%q cached=%v", row, cached)
	}
	if s := c2.Stats(); s.DiskWrites != 1 {
		t.Fatalf("recomputed row not re-stored: %+v", s)
	}
	if b2, err := os.ReadFile(path); err != nil || string(b2) != string(encodeEntry("good-row")) {
		t.Fatalf("re-stored entry wrong: %q, %v", b2, err)
	}
}

// TestDiskCorruptionTruncate pins detection at read time (not just
// preload): an entry truncated after the cache started — and already
// evicted from memory — is caught by the checksum during Do, deleted, and
// recomputed rather than served short.
func TestDiskCorruptionTruncate(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, 1, dir)
	key := Key{Digest: "victim", Seed: 9}
	mustDo(t, c, key, "full-row-payload")
	// Evict the victim from the memory tier so the next Do reads disk.
	mustDo(t, c, Key{Digest: "filler", Seed: 0}, "filler")

	path := entryPath(dir, key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(b) - 3, len(b) / 2, 0} {
		if err := os.WriteFile(path, b[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.Stats().CorruptEntries
		row, cached := mustDo(t, c, key, "full-row-payload")
		if row != "full-row-payload" || cached {
			t.Fatalf("truncate to %d bytes: row=%q cached=%v", n, row, cached)
		}
		if after := c.Stats().CorruptEntries; after != before+1 {
			t.Fatalf("truncate to %d bytes: CorruptEntries %d -> %d", n, before, after)
		}
		// Evict again so the next iteration reads disk again.
		mustDo(t, c, Key{Digest: "filler", Seed: 0}, "filler")
	}
}

// TestDiskHitAfterEviction pins the tier order: a row evicted from the
// bounded memory tier is served from disk (DiskHits, cached true, compute
// not invoked) and reinstated in memory.
func TestDiskHitAfterEviction(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, 1, dir)
	key := Key{Digest: "aa", Seed: 1}
	mustDo(t, c, key, "row-a")
	mustDo(t, c, Key{Digest: "bb", Seed: 2}, "row-b") // evicts aa from memory

	row, _, err := c.Do(key, func() (string, error) {
		return "", fmt.Errorf("disk-resident row recomputed")
	})
	if err != nil || row != "row-a" {
		t.Fatalf("disk hit: row=%q err=%v", row, err)
	}
	s := c.Stats()
	if s.DiskHits != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// Reinstated in the memory tier: the next Do is a memory hit.
	row, cached, err := c.Do(key, func() (string, error) {
		return "", fmt.Errorf("reinstated row recomputed")
	})
	if err != nil || !cached || row != "row-a" {
		t.Fatalf("disk hit not reinstated in memory: row=%q cached=%v err=%v", row, cached, err)
	}
	if s := c.Stats(); s.Hits != 1 || s.DiskHits != 1 {
		t.Fatalf("second read was not a memory hit: %+v", s)
	}
}

// TestDiskErrorsNotStored pins that failed computations leave no disk
// entry: errors are retried, never made durable.
func TestDiskErrorsNotStored(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, 4, dir)
	key := Key{Digest: "bad", Seed: 1}
	if _, _, err := c.Do(key, func() (string, error) {
		return "", fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("error not propagated")
	}
	if _, err := os.Stat(entryPath(dir, key)); !os.IsNotExist(err) {
		t.Fatal("failed computation left a disk entry")
	}
	if s := c.Stats(); s.DiskWrites != 0 || s.Errors != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestDiskPreloadSweepsTempFiles pins crash hygiene: a temp file left by a
// writer that died before rename is swept at the next preload and never
// mistaken for an entry.
func TestDiskPreloadSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "tmp-12345")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := diskCache(t, 4, dir)
	if s := c.Stats(); s.Preloaded != 0 || s.CorruptEntries != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived preload")
	}
}

// TestDiskSingleFlightAcrossTiers pins the cross-tier single-flight
// guarantee under the race detector: many goroutines requesting one
// missing key cost exactly one compute and one disk write; many
// goroutines requesting one disk-resident key cost exactly one disk read
// and zero computes.
func TestDiskSingleFlightAcrossTiers(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, 2, dir)
	const waiters = 32

	// Phase 1: cold key, concurrent callers, one compute.
	var computes atomic.Uint64
	key := Key{Digest: "cold", Seed: 5}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			row, _, err := c.Do(key, func() (string, error) {
				computes.Add(1)
				return "cold-row", nil
			})
			if err != nil || row != "cold-row" {
				t.Errorf("cold: row=%q err=%v", row, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("cold key computed %d times", n)
	}
	if s := c.Stats(); s.DiskWrites != 1 {
		t.Fatalf("cold key written %d times", s.DiskWrites)
	}

	// Phase 2: evict from memory, then hammer the disk-resident key.
	mustDo(t, c, Key{Digest: "f1", Seed: 0}, "f")
	mustDo(t, c, Key{Digest: "f2", Seed: 0}, "f")
	start = make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			row, _, err := c.Do(key, func() (string, error) {
				computes.Add(1)
				return "cold-row", nil
			})
			if err != nil || row != "cold-row" {
				t.Errorf("warm: row=%q err=%v", row, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("disk-resident key recomputed: %d computes total", n)
	}
	s := c.Stats()
	if s.DiskHits == 0 {
		t.Fatalf("no disk hit recorded: %+v", s)
	}
	// The disk was read once for the whole stampede; everyone else joined
	// in-flight or hit the reinstated memory entry.
	if s.DiskHits != 1 {
		t.Fatalf("disk read %d times for one stampede", s.DiskHits)
	}
}
