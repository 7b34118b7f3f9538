package sweepcache

import (
	"math"
	"strings"
	"testing"
)

// FuzzCacheEntryDecode drives the row-file decoder with arbitrary bytes: a
// restart reads every file under the cache directory through it, damaged
// or not. It must never panic and must reach the same decision, with the
// same row, every time it sees the same bytes. The fuzzed bytes double as
// a row: any row decodes from its own encoding unchanged.
func FuzzCacheEntryDecode(f *testing.F) {
	good := encodeEntry("tightloop/WiSync/16c/s1\tcycles=1234\titers=8")
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	for _, seed := range [][]byte{
		good,
		good[:len(good)-1], // torn write
		flipped,            // bit rot in the payload
		good[:len(diskMagic)+5],
		[]byte(diskMagic + " 00\nrow"),
		[]byte("wisync-sweepcache/0 " + string(good[len(diskMagic)+1:])),
		[]byte("no header line"),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		row, err := decodeEntry(b)
		row2, err2 := decodeEntry(b)
		if (err == nil) != (err2 == nil) || row != row2 {
			t.Fatalf("same bytes, different decisions: %q, %v then %q, %v", row, err, row2, err2)
		}
		if back, err := decodeEntry(encodeEntry(string(b))); err != nil || back != string(b) {
			t.Fatalf("row %q decodes from its own encoding as %q (%v)", b, back, err)
		}
	})
}

// FuzzCacheFileName drives the file-name parser with arbitrary names, as
// preload meets them in the cache directory, and the renderer with
// arbitrary keys. parseFileName must never panic and must reach the same
// decision every time; every key, including digests that take the
// "x"+hex form, must render to a name inside the directory that parses
// back to it. An accepted name need not be canonical: "abc-s01.row"
// parses, and preload then reads the canonical "abc-s1.row".
func FuzzCacheFileName(f *testing.F) {
	for _, c := range []struct {
		name, digest string
		seed         uint64
	}{
		{"a3f9-s0.row", "a3f9", 0},
		{"abc-s01.row", "deadbeefDEADBEEF00", math.MaxUint64},
		{"x2e2e2f-s7.row", "../../../etc/passwd", 7},
		{"xzz-s1.row", "with-s42-infix", 42},
		{"-s3.row", "xalready-prefixed", 1},
		{"tmp-123", "", 3},
		{"garbage", "\xff\x00", 5},
	} {
		f.Add(c.name, c.digest, c.seed)
	}
	f.Fuzz(func(t *testing.T, name, digest string, seed uint64) {
		k1, ok1 := parseFileName(name)
		k2, ok2 := parseFileName(name)
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("same name %q, different decisions: %+v, %v then %+v, %v", name, k1, ok1, k2, ok2)
		}
		k := Key{Digest: digest, Seed: seed}
		rendered := fileName(k)
		if strings.ContainsAny(rendered, "/\\") || strings.Contains(rendered, "..") {
			t.Fatalf("fileName(%+v) = %q escapes the cache dir", k, rendered)
		}
		if back, ok := parseFileName(rendered); !ok || back != k {
			t.Fatalf("parseFileName(fileName(%+v)) = %+v, %v (name %q)", k, back, ok, rendered)
		}
	})
}
