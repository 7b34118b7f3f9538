package harness

import (
	"strings"
	"testing"

	"wisync/internal/config"
)

// quickSpecs is a small batch of fast golden-covered points spanning kinds
// and seeds.
func quickSpecs() []PointSpec {
	return []PointSpec{
		{Workload: "tightloop", Kind: config.Baseline, Cores: 16, Seed: 1},
		{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1},
		{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 77},
		{Workload: "tightloop", Kind: config.BaselinePlus, Cores: 16, Seed: 2},
		{Workload: "liv6", Kind: config.WiSync, Cores: 16, Seed: 1, N: 16},
	}
}

// TestRunPointsPanicIsolation is the regression test for the sweep-worker
// bugfix: a panic inside one point's simulation must surface as that
// outcome's Err while every other point's row stays bit-identical to a
// clean batch — one bad job point cannot take down the pool or perturb its
// neighbors.
func TestRunPointsPanicIsolation(t *testing.T) {
	specs := quickSpecs()
	clean := RunPoints(Options{Workers: 3}, specs)
	for _, o := range clean {
		if o.Err != nil {
			t.Fatalf("clean run errored on %s: %v", o.Spec.ID(), o.Err)
		}
		if o.Row == "" {
			t.Fatalf("clean run produced empty row for %s", o.Spec.ID())
		}
	}

	// Inject a panic into exactly the seed-77 point.
	pointRunHook = func(s PointSpec) {
		if s.Seed == 77 {
			panic("injected: simulated core meltdown")
		}
	}
	defer func() { pointRunHook = nil }()

	poisoned := RunPoints(Options{Workers: 3}, specs)
	for i, o := range poisoned {
		if specs[i].Seed == 77 {
			if o.Err == nil {
				t.Fatalf("injected panic did not surface as an error")
			}
			if !strings.Contains(o.Err.Error(), "panicked") || !strings.Contains(o.Err.Error(), "meltdown") {
				t.Fatalf("panic error lost its message: %v", o.Err)
			}
			if o.Row != "" {
				t.Fatalf("panicking point still produced a row: %q", o.Row)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("neighbor %s errored after injected panic: %v", o.Spec.ID(), o.Err)
		}
		if o.Row != clean[i].Row {
			t.Fatalf("neighbor %s row changed after injected panic:\nclean:    %s\npoisoned: %s",
				o.Spec.ID(), clean[i].Row, o.Row)
		}
	}
}

// TestRunPointsWorkerInvariance pins that outcomes are in spec order and
// byte-identical at any worker count.
func TestRunPointsWorkerInvariance(t *testing.T) {
	specs := quickSpecs()
	seq := RunPoints(Options{Workers: 1}, specs)
	par := RunPoints(Options{Workers: 4}, specs)
	for i := range seq {
		if seq[i].Row != par[i].Row {
			t.Fatalf("point %s differs across worker counts:\n1: %s\n4: %s",
				specs[i].ID(), seq[i].Row, par[i].Row)
		}
	}
}

// TestPointSpecNormalize pins alias resolution, default fill-in, and the
// zeroing of parameters the workload does not read.
func TestPointSpecNormalize(t *testing.T) {
	n, err := PointSpec{Workload: "liv2", Kind: config.WiSync, Cores: 64, Seed: 1, CS: 999}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Workload != "livermore2" {
		t.Fatalf("alias not resolved: %q", n.Workload)
	}
	if n.N != 96 || n.Passes != 1 {
		t.Fatalf("golden defaults not filled: n=%d passes=%d", n.N, n.Passes)
	}
	if n.CS != 0 {
		t.Fatalf("irrelevant CS parameter survived normalization: %d", n.CS)
	}
	if _, err := (PointSpec{Workload: "mystery", Kind: config.WiSync, Cores: 64}).Normalize(); err == nil {
		t.Fatal("unknown workload normalized")
	}
}

// TestPointDigest pins the content-address semantics the cache relies on:
// aliases and defaults collapse onto one digest; the seed does not split
// it; workload parameters and machine configuration do.
func TestPointDigest(t *testing.T) {
	digest := func(s PointSpec) string {
		t.Helper()
		d, err := s.Digest()
		if err != nil {
			t.Fatalf("Digest(%+v): %v", s, err)
		}
		return d
	}
	base := PointSpec{Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, N: 96, Passes: 1}
	alias := PointSpec{Workload: "liv2", Kind: config.WiSync, Cores: 64, Seed: 9, CS: 5}
	if digest(base) != digest(alias) {
		t.Fatal("alias/defaults/seed split the digest; cache would never hit")
	}
	for name, other := range map[string]PointSpec{
		"workload": {Workload: "livermore3", Kind: config.WiSync, Cores: 64, Seed: 1},
		"kind":     {Workload: "livermore2", Kind: config.Baseline, Cores: 64, Seed: 1},
		"cores":    {Workload: "livermore2", Kind: config.WiSync, Cores: 128, Seed: 1},
		"n":        {Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, N: 128},
		"variant":  {Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, Variant: config.SlowNet},
		"mac":      {Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, MAC: 1},
	} {
		if digest(base) == digest(other) {
			t.Errorf("changing %s did not move the point digest", name)
		}
	}
}

// TestPointSpecValidate pins that every malformed-spec class is an error,
// and that Run returns those errors instead of panicking.
func TestPointSpecValidate(t *testing.T) {
	good := PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec invalid: %v", err)
	}
	bad := map[string]PointSpec{
		"unknown workload": {Workload: "mystery", Kind: config.WiSync, Cores: 64, Seed: 1},
		"unknown app":      {Workload: "app:doom", Kind: config.WiSync, Cores: 64, Seed: 1},
		"zero cores":       {Workload: "tightloop", Kind: config.WiSync, Seed: 1},
		"too many cores":   {Workload: "tightloop", Kind: config.WiSync, Cores: 500, Seed: 1},
		"bad kind":         {Workload: "tightloop", Kind: 9, Cores: 64, Seed: 1},
		"bad variant":      {Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1, Variant: 9},
		"bad mac":          {Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1, MAC: 9},
		"iters beyond cap": {Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1, Iters: maxIters + 1},
		"n beyond cap":     {Workload: "liv2", Kind: config.WiSync, Cores: 64, Seed: 1, N: maxVecLen + 1},
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
		row, err := s.Run()
		if err == nil {
			t.Errorf("%s: Run succeeded with row %q", name, row)
		}
	}
}
