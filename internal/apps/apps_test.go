package apps

import (
	"testing"

	"wisync/internal/config"
)

func TestProfileCatalog(t *testing.T) {
	ps := Profiles()
	if len(ps) != 26 {
		t.Fatalf("%d profiles, want 26 (12 PARSEC + 14 SPLASH-2)", len(ps))
	}
	var parsec, splash int
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		switch p.Suite {
		case "PARSEC":
			parsec++
		case "SPLASH-2":
			splash++
		default:
			t.Errorf("%s: unknown suite %q", p.Name, p.Suite)
		}
		if p.Iterations <= 0 || p.ComputeMean <= 0 {
			t.Errorf("%s: degenerate profile %+v", p.Name, p)
		}
	}
	if parsec != 12 || splash != 14 {
		t.Errorf("parsec/splash = %d/%d, want 12/14", parsec, splash)
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("streamcluster")
	if !ok || p.Name != "streamcluster" {
		t.Fatalf("ByName(streamcluster) = %+v, %v", p, ok)
	}
	if _, ok := ByName("doom"); ok {
		t.Error("ByName(doom) found a profile")
	}
	// An app point looks its profile up twice (PointSpec.Normalize and
	// Simulate), so the lookup must not rebuild the catalogue.
	if allocs := testing.AllocsPerRun(100, func() { ByName("dedup") }); allocs != 0 {
		t.Errorf("ByName allocates %.0f times per call, want 0", allocs)
	}
	// Profiles hands out a copy: editing it leaves the catalogue alone.
	Profiles()[0].Name = "edited"
	if Profiles()[0].Name == "edited" {
		t.Error("Profiles returned the catalogue itself")
	}
}

func TestRunDeterministic(t *testing.T) {
	p, _ := ByName("water-ns")
	p.Iterations = 2
	cfg := config.New(config.WiSync, 16)
	a := Run(cfg, p)
	b := Run(cfg, p)
	if a.Cycles != b.Cycles {
		t.Fatalf("same seed, different cycles: %d vs %d", a.Cycles, b.Cycles)
	}
	cfg2 := cfg.WithSeed(99)
	c := Run(cfg2, p)
	if c.Cycles == a.Cycles {
		t.Logf("note: different seed produced identical cycles (possible but unlikely)")
	}
}

func TestLockArrayLargerThanBMSpills(t *testing.T) {
	// dedup and fluidanimate declare more locks than the BM holds
	// (Section 6); allocation must spill transparently.
	for _, name := range []string{"dedup", "fluidanimate"} {
		p, _ := ByName(name)
		p.Iterations = 1
		r := Run(config.New(config.WiSync, 16), p)
		if r.Spills == 0 {
			t.Errorf("%s: no BM spills despite %d locks", name, p.NumLocks)
		}
	}
}

func TestStreamclusterShape(t *testing.T) {
	// The headline Figure 10 bar: barrier-bound, WiSync ~6x Baseline,
	// Baseline+ clearly behind, and the Tone channel removes nearly all
	// Data-channel traffic (Table 5: str 3.0% -> 0.0%).
	p, _ := ByName("streamcluster")
	p.Iterations = 5
	base := config.New(config.Baseline, 64)
	sp := Speedups(base, p)
	if sp[config.WiSync] < 4 || sp[config.WiSync] > 9 {
		t.Errorf("WiSync speedup %.2f, want ~6", sp[config.WiSync])
	}
	if sp[config.BaselinePlus] >= sp[config.WiSyncNoT] {
		t.Errorf("Baseline+ (%.2f) not behind WiSyncNoT (%.2f)",
			sp[config.BaselinePlus], sp[config.WiSyncNoT])
	}
	wnt := Run(withKind(base, config.WiSyncNoT), p)
	w := Run(withKind(base, config.WiSync), p)
	if w.DataUtilPct() > wnt.DataUtilPct()/2 {
		t.Errorf("tone barriers did not offload the Data channel: WT %.2f%% vs W %.2f%%",
			wnt.DataUtilPct(), w.DataUtilPct())
	}
}

func TestLockBoundAppUtilizationEqualAcrossWiSyncVariants(t *testing.T) {
	// Table 5: lock-bound apps (radiosity, raytrace, water-ns) use the
	// Data channel identically with and without the Tone channel.
	p, _ := ByName("radiosity")
	p.Iterations = 3
	base := config.New(config.Baseline, 64)
	wnt := Run(withKind(base, config.WiSyncNoT), p)
	w := Run(withKind(base, config.WiSync), p)
	ratio := w.DataUtilPct() / wnt.DataUtilPct()
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("lock-app utilization differs across variants: WT %.2f%% vs W %.2f%%",
			wnt.DataUtilPct(), w.DataUtilPct())
	}
}

func TestComputeBoundAppNearParity(t *testing.T) {
	p, _ := ByName("blackscholes")
	p.Iterations = 3
	sp := Speedups(config.New(config.Baseline, 32), p)
	for k, v := range sp {
		if v < 0.9 || v > 1.2 {
			t.Errorf("%v speedup %.2f on a compute-bound app, want ~1.0", k, v)
		}
	}
}

// TestTaskModeRecyclesSteps asserts the interpreter actually reuses its
// step structs: pool hits must dwarf misses on any non-trivial profile.
func TestTaskModeRecyclesSteps(t *testing.T) {
	p, _ := ByName("streamcluster")
	p.Iterations = 3
	r := Run(config.New(config.Baseline, 16), p)
	if r.Sched.StepPoolMisses == 0 {
		t.Fatal("no step allocations recorded — counters not wired?")
	}
	if r.Sched.StepPoolHits < 10*r.Sched.StepPoolMisses {
		t.Errorf("step pool hits (%d) not dominating misses (%d)",
			r.Sched.StepPoolHits, r.Sched.StepPoolMisses)
	}
}
