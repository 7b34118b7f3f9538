package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/fault"
	"wisync/internal/wireless"
)

func mustDigest(t *testing.T, c Config) string {
	t.Helper()
	d, err := c.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return d
}

// TestDigestFieldOrderIndependence pins that the digest depends on the
// configuration, not on how its JSON was spelled: the same fields in
// scrambled order, with different whitespace, decode to the same digest.
func TestDigestFieldOrderIndependence(t *testing.T) {
	base := New(WiSync, 64)
	canonical, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Scramble: decode the canonical form into a generic map and re-encode
	// it (Go maps marshal with sorted keys, a different order than the
	// struct's declaration order), then decode that back into a Config.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(canonical, &m); err != nil {
		t.Fatal(err)
	}
	scrambled, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(scrambled) == string(canonical) {
		t.Fatalf("scrambling produced the canonical byte order; test is vacuous")
	}
	var c2 Config
	if err := json.Unmarshal(scrambled, &c2); err != nil {
		t.Fatal(err)
	}
	if got, want := mustDigest(t, c2), mustDigest(t, base); got != want {
		t.Fatalf("digest depends on JSON field order: %s vs %s", got, want)
	}
}

// TestDigestRoundTrip pins marshal -> unmarshal -> digest identity for
// every kind, and that re-encoding the canonical form reproduces it byte
// for byte.
func TestDigestRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		for _, v := range Variants {
			c := New(k, 128).WithVariant(v).WithSeed(7).WithMAC(wireless.MACToken)
			b, err := c.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var c2 Config
			if err := json.Unmarshal(b, &c2); err != nil {
				t.Fatal(err)
			}
			if c2 != c {
				t.Fatalf("%v/%v: round-trip changed the config:\n%+v\n%+v", k, v, c, c2)
			}
			b2, err := c2.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(b2) != string(b) {
				t.Fatalf("%v/%v: canonical form not reproducible:\n%s\n%s", k, v, b, b2)
			}
			if mustDigest(t, c2) != mustDigest(t, c) {
				t.Fatalf("%v/%v: round-trip changed the digest", k, v)
			}
		}
	}
}

// TestDigestExcludesSeed pins the deliberate exclusion: the seed is the
// cache key's other half, so it may not split the content address.
func TestDigestExcludesSeed(t *testing.T) {
	base := New(WiSync, 64)
	if mustDigest(t, base.WithSeed(42)) != mustDigest(t, base) {
		t.Fatal("seed leaked into the digest")
	}
}

// enumSizes lists the valid value count of every enum-typed field, so the
// flip test can bump them within range (out-of-range enums refuse to
// marshal, by design).
var enumSizes = map[reflect.Type]int64{
	reflect.TypeOf(Kind(0)):                   int64(len(Kinds)),
	reflect.TypeOf(wireless.MACKind(0)):       int64(len(wireless.MACKinds)),
	reflect.TypeOf(wireless.BackoffPolicy(0)): 3,
	reflect.TypeOf(wireless.DeferPolicy(0)):   2,
	reflect.TypeOf(channel.Profile(0)):        int64(len(channel.Profiles)),
}

// leafPaths enumerates every leaf field path of t, recursing into nested
// structs (the wireless and tone parameter structs).
func leafPaths(t reflect.Type, prefix string) []string {
	if t.Kind() != reflect.Struct {
		return []string{prefix}
	}
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		out = append(out, leafPaths(f.Type, prefix+"."+f.Name)...)
	}
	return out
}

// fieldAt navigates a dot path like ".Wireless.MsgCycles" to the
// addressable leaf value inside c.
func fieldAt(c *Config, path string) reflect.Value {
	v := reflect.ValueOf(c).Elem()
	for _, name := range strings.Split(strings.TrimPrefix(path, "."), ".") {
		v = v.FieldByName(name)
	}
	return v
}

// TestDigestFieldFlips walks every leaf field of Config (including the
// nested wireless and tone parameter structs) and asserts that flipping it
// moves the digest — except Seed, covered above. A future field
// that does not move the digest fails loudly: silently excluding a new
// sweep-relevant knob from the content address would serve wrong cached
// results.
func TestDigestFieldFlips(t *testing.T) {
	base := New(WiSync, 64)
	baseDigest := mustDigest(t, base)
	paths := leafPaths(reflect.TypeOf(base), "")
	if len(paths) < 15 {
		t.Fatalf("only %d leaf fields found; the walk is broken", len(paths))
	}
	for _, path := range paths {
		if path == ".Seed" {
			continue // digest-excluded by design, pinned above
		}
		if path == ".Abort" {
			continue // host-side control (json:"-"), digest-excluded by design
		}
		c := base
		flipOne(t, fieldAt(&c, path), path)
		if mustDigest(t, c) == baseDigest {
			t.Errorf("flipping %s did not move the digest", path)
		}
	}
}

// flipOne bumps one leaf field to a different valid value.
func flipOne(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	if n, ok := enumSizes[v.Type()]; ok {
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt((v.Int() + 1) % n)
		default:
			v.SetUint(uint64((int64(v.Uint()) + 1) % n))
		}
		return
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Ptr:
		// Optional sub-configs (the fault plan): nil -> a non-nil zero
		// value, which serializes as an explicit empty object.
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("field %s: unflippable kind %v — extend the test", path, v.Kind())
	}
}

// TestEnumJSONRejectsUnknownNames pins that decode-time validation catches
// bad names for every enum the job vocabulary exposes.
func TestEnumJSONRejectsUnknownNames(t *testing.T) {
	var k Kind
	if err := json.Unmarshal([]byte(`"Quantum"`), &k); err == nil {
		t.Fatal("unknown kind name decoded")
	}
	if err := json.Unmarshal([]byte(`3`), &k); err == nil {
		t.Fatal("numeric kind decoded; names are the wire form")
	}
	var v Variant
	if err := json.Unmarshal([]byte(`"Turbo"`), &v); err == nil {
		t.Fatal("unknown variant name decoded")
	}
	var m wireless.MACKind
	if err := json.Unmarshal([]byte(`"aloha"`), &m); err == nil {
		t.Fatal("unknown mac name decoded")
	}
	if _, err := Kind(9).MarshalJSON(); err == nil {
		t.Fatal("invalid kind marshaled")
	}
}

// TestValidateCentralized pins the job-level checks the service leans on.
func TestValidateCentralized(t *testing.T) {
	good := New(WiSync, 64)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		func() Config { c := good; c.Kind = 9; return c }(),
		func() Config { c := good; c.Cores = 0; return c }(),
		func() Config { c := good; c.Cores = 1000; return c }(),
		func() Config { c := good; c.Wireless.MAC = 9; return c }(),
		func() Config { c := good; c.Wireless.Backoff = 9; return c }(),
		func() Config { c := good; c.Wireless.Defer = 9; return c }(),
		func() Config { c := good; c.Wireless.MsgCycles = 0; return c }(),
		func() Config { c := good; c.Tone.TableSize = 0; return c }(),
		func() Config { c := good; c.L1Sets = 0; return c }(),
		func() Config { c := good; c.Wireless.Channel.Profile = 9; return c }(),
		func() Config { c := good; c.Wireless.Channel.BER = -1; return c }(),
		func() Config { c := good; c.Wireless.Channel.BER = 1; return c }(),
		func() Config {
			c := good
			c.Wireless.Channel.MaxRetries = channel.MaxRetriesCap + 1
			return c
		}(),
		func() Config { // burst channel with good state dirtier than bad
			c := good
			c.Wireless.Channel = channel.Params{Profile: channel.Burst, BER: 1e-5, BERGood: 1e-3}
			return c
		}(),
		func() Config { // fault plan naming a node the machine doesn't have
			c := good
			return c.WithFaults(&fault.Plan{Outages: []fault.Outage{{Node: 64, At: 100}}})
		}(),
		func() Config { // fault plan killing every transceiver
			c := New(WiSync, 2)
			return c.WithFaults(&fault.Plan{Outages: []fault.Outage{{Node: 0, At: 0}, {Node: 1, At: 0}}})
		}(),
		func() Config { // fault plan on a wired machine
			c := New(Baseline, 64)
			return c.WithFaults(&fault.Plan{Outages: []fault.Outage{{Node: 3, At: 100}}})
		}(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, c)
		}
	}
}
