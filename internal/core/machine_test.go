package core

import (
	"testing"

	"wisync/internal/config"
)

// TestNewRejectsInvalidConfig pins the error-returning construction path
// the sweep service uses: a malformed configuration is an error from New,
// while NewMachine keeps its panic contract for static harness code.
func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(config.New(config.WiSync, 64)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := config.New(config.WiSync, 64)
	bad.Cores = 0
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted a zero-core config")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewMachine did not panic on an invalid config")
		}
	}()
	NewMachine(bad)
}
