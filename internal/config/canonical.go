// Canonical serialization and content addressing.
//
// The sweep service memoizes completed points in a content-addressed cache,
// which is only sound if two configurations that simulate identically hash
// identically and any configuration change that could move a result moves
// the hash. This file defines that canonical form: Config marshals to JSON
// with enum fields rendered as their flag names (so job documents read
// naturally and unknown names fail at decode time, not inside a worker),
// and Digest condenses the result-relevant fields to a hex SHA-256.
//
// Seed is deliberately excluded from the digest: it is the other half of
// the cache key (the service keys entries by (digest, seed)).
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// ParseKind resolves a machine-kind name (case-insensitive), e.g. from a
// -kind flag or a sweep-job document.
func ParseKind(s string) (Kind, bool) {
	for _, k := range Kinds {
		if strings.EqualFold(k.String(), s) {
			return k, true
		}
	}
	return 0, false
}

// ParseVariant resolves a Table 6 variant name (case-insensitive).
func ParseVariant(s string) (Variant, bool) {
	for _, v := range Variants {
		if strings.EqualFold(v.String(), s) {
			return v, true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its flag name. Unknown values are an
// error, not a silent numeric fallback: a corrupt kind must not produce a
// plausible-looking canonical form.
func (k Kind) MarshalJSON() ([]byte, error) {
	if k < Baseline || k > WiSync {
		return nil, fmt.Errorf("config: cannot marshal invalid %v", k)
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts a kind name as ParseKind does.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("config: kind must be a name string: %w", err)
	}
	v, ok := ParseKind(s)
	if !ok {
		return fmt.Errorf("config: unknown kind %q (one of: %s)", s, kindNames())
	}
	*k = v
	return nil
}

// MarshalJSON renders the variant as its flag name.
func (v Variant) MarshalJSON() ([]byte, error) {
	if v < Default || v > SlowBMEM {
		return nil, fmt.Errorf("config: cannot marshal invalid %v", v)
	}
	return json.Marshal(v.String())
}

// UnmarshalJSON accepts a variant name as ParseVariant does.
func (v *Variant) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("config: variant must be a name string: %w", err)
	}
	p, ok := ParseVariant(s)
	if !ok {
		return fmt.Errorf("config: unknown variant %q", s)
	}
	*v = p
	return nil
}

func kindNames() string {
	var names []string
	for _, k := range Kinds {
		names = append(names, k.String())
	}
	return strings.Join(names, " ")
}

// CanonicalJSON renders the configuration in its canonical wire form: one
// JSON object with fields in struct declaration order and enums as names.
// Decoding it (in any field order) and re-encoding reproduces it byte for
// byte, which is what makes the form safe to digest.
func (c Config) CanonicalJSON() ([]byte, error) {
	return json.Marshal(c)
}

// Digest returns the content address of the configuration as a hex
// SHA-256 over its canonical JSON with Seed zeroed (see the file comment
// for why it is excluded). Configurations that simulate identically share
// a digest; flipping any result-relevant field changes it (pinned by
// TestDigestFieldFlips).
func (c Config) Digest() (string, error) {
	c.Seed = 0
	b, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
