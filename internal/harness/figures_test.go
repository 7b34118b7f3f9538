package harness

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/fault"
	"wisync/internal/wireless"
)

const figuresQuickPath = "testdata/figures_quick.txt"

// TestFiguresQuickMatchRecorded pins every figure's quick-size tables — All
// then MACSweep, ideal channel, no fault plan — byte for byte against
// testdata/figures_quick.txt. The golden matrices pin single points; this
// file pins what they do not: each figure's own parameters (core counts,
// vector lengths, critical sections, iteration trims) and its rendering.
// Rewrite it after an intended change with
//
//	go test ./internal/harness -run TestFiguresQuickMatchRecorded -update-golden
func TestFiguresQuickMatchRecorded(t *testing.T) {
	if testing.Short() && !*updateGolden {
		t.Skip("runs every quick figure; skipped under -short")
	}
	var b strings.Builder
	o := Options{Quick: true, Out: &b}
	All(o)
	MACSweep(o)
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(figuresQuickPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(figuresQuickPath)
	if err != nil {
		t.Fatalf("no recorded figures (generate with -update-golden): %v", err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	for i := 0; i < len(want) || i < len(lines); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("figures diverge from %s at line %d\n got: %s\nwant: %s", figuresQuickPath, i+1, g, w)
		}
	}
}

// jsonFields returns v's JSON object as key -> raw value.
func jsonFields(t *testing.T, v any) map[string]json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFigurePointsCarryTemplate: every point a figure runs carries every
// template field except the ones its Figures entry lists in Sets, at quick
// and full size, with the fault plan on wireless points only. A zero
// template seed runs as seed 1.
func TestFigurePointsCarryTemplate(t *testing.T) {
	tmpl := PointSpec{Seed: 7, Variant: config.SlowNet, MAC: wireless.MACToken,
		Channel: channel.Burst, BER: 1e-3, Retries: 3, BERGood: 1e-6, PGB: 0.02, PBG: 0.3,
		Faults:   &fault.Plan{Outages: []fault.Outage{{Node: 1, At: 500, For: 100}}},
		Budget:   1 << 24,
		Watchdog: 1 << 20,
		Iters:    99, N: 99, Passes: 9, CS: 99, Duration: 9999}
	want := jsonFields(t, tmpl)
	for _, f := range Figures {
		if f.Points == nil {
			continue
		}
		sets := make(map[string]bool)
		for _, k := range f.Sets {
			sets[k] = true
		}
		for _, quick := range []bool{true, false} {
			pts := f.Points(Options{Quick: quick, Point: tmpl})
			if len(pts) == 0 {
				t.Fatalf("%s: no points", f.Name)
			}
			for _, p := range pts {
				got := jsonFields(t, p)
				for k, v := range want {
					switch {
					case sets[k]:
					case k == "faults" && !p.Kind.HasBM():
						if _, ok := got[k]; ok {
							t.Errorf("%s: wired point %s carries the fault plan", f.Name, p.ID())
						}
					case string(got[k]) != string(v):
						t.Errorf("%s: point %s has %s=%s, template %s", f.Name, p.ID(), k, got[k], v)
					}
				}
			}
			for _, p := range f.Points(Options{Quick: quick}) {
				if p.Seed != 1 {
					t.Errorf("%s: point %s runs seed %d under a zero template seed, want 1", f.Name, p.ID(), p.Seed)
				}
			}
		}
	}
}

// TestFig10HonoursFaultPlan: the template's fault plan reaches Figure 10's
// wireless points. An outage on node 3 moves the WiSync speedup — Baseline
// cycles over WiSync cycles, with the Baseline run fault-free — of
// streamcluster or radiosity.
func TestFig10HonoursFaultPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("two application sweeps")
	}
	plan, err := fault.Parse([]byte(`{"outages":[{"node":3,"at":1000,"for":20000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	clean := Fig10(Options{Quick: true})
	faulty := Fig10(Options{Quick: true, Point: PointSpec{Faults: plan}})
	moved := false
	for i, r := range clean {
		if (r.Name == "streamcluster" || r.Name == "radiosity") &&
			r.Speedup[config.WiSync] != faulty[i].Speedup[config.WiSync] {
			moved = true
		}
	}
	if !moved {
		t.Error("Figure 10's WiSync runs ignore the fault plan")
	}
}

// TestMACSweepHonoursTemplate: the MAC comparison takes the template's
// channel, fault plan and cycle budget like every other figure.
func TestMACSweepHonoursTemplate(t *testing.T) {
	render := func(p PointSpec) string {
		var b strings.Builder
		MACSweep(Options{Quick: true, Point: p, Out: &b})
		return b.String()
	}
	ideal := render(PointSpec{})
	if render(PointSpec{Channel: channel.Uniform}) == ideal {
		t.Error("MACSweep under a lossy channel prints the ideal-channel tables")
	}
	// Short outages listed out of canonical order: every point shares the
	// plan, so the sweep must order it before its pool starts, or the
	// points would sort it under one another (caught under -race).
	plan := &fault.Plan{}
	for node := 13; node >= 1; node-- {
		plan.Outages = append(plan.Outages, fault.Outage{Node: node, At: uint64(1000 + 500*node), For: 2000})
	}
	if render(PointSpec{Faults: plan}) == ideal {
		t.Error("MACSweep under a fault plan prints the fault-free tables")
	}
	for name, run := range map[string]func(Options){
		"fig7": func(o Options) { Fig7(o) },
		"macs": func(o Options) { MACSweep(o) },
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				var be *core.BudgetError
				if !errors.As(err, &be) {
					t.Errorf("%s under a 100-cycle budget: got %v, want a budget error", name, err)
				}
			}()
			run(Options{Quick: true, Workers: 1, Point: PointSpec{Budget: 100}})
		}()
	}
}
