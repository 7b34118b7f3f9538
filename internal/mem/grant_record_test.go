package mem

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

// grantRecordPath pins the order in which contended directory lines and
// memory-controller ports hand themselves on: for each scenario, every
// request's core, operation, issue and completion cycles and observed
// value, in completion order, and the memory system's counters. Engine
// event counts are left out on purpose: how many events a grant costs is
// the engine's business, not the protocol's. Regenerate with
//
//	go test ./internal/mem -run TestGrantScenariosMatchRecorded -update-golden
const grantRecordPath = "testdata/grant_scenarios.txt"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+grantRecordPath)

// grantScenario drives requests on a fresh memory system and records each
// one as it completes.
type grantScenario struct {
	t     *testing.T
	eng   *sim.Engine
	s     *System
	lines []string
}

func newGrantScenario(t *testing.T, cores int) *grantScenario {
	eng := sim.NewEngine(1)
	return &grantScenario{t: t, eng: eng, s: New(eng, noc.New(cores, 4), DefaultParams(cores))}
}

// record returns a completion that logs one request issued now.
func (g *grantScenario) record(core int, op string, then func(uint64)) func(uint64) {
	issued := g.eng.Now()
	return func(v uint64) {
		g.lines = append(g.lines, fmt.Sprintf("core=%d op=%s issue=%d done=%d v=%d", core, op, issued, g.eng.Now(), v))
		then(v)
	}
}

func (g *grantScenario) read(core int, addr uint64, then func(uint64)) {
	g.s.ReadAsync(core, addr, g.record(core, "read", then))
}

func (g *grantScenario) write(core int, addr, val uint64, then func(uint64)) {
	g.s.RMWAsync(core, addr, func(uint64) (uint64, bool) { return val, true },
		g.record(core, fmt.Sprintf("write(%d)", val), then))
}

func (g *grantScenario) cas(core int, addr, old, nv uint64, then func(uint64)) {
	g.s.RMWAsync(core, addr, func(v uint64) (uint64, bool) { return nv, v == old },
		g.record(core, fmt.Sprintf("cas(%d,%d)", old, nv), then))
}

func (g *grantScenario) spin(core int, addr uint64, c sim.Cond, then func(uint64)) {
	g.s.SpinUntilAsync(core, addr, c, g.record(core, "spin", then))
}

// task runs body as a task that starts at cycle at; body calls done to
// finish it.
func (g *grantScenario) task(name string, at sim.Time, body func(done func())) {
	g.eng.GoTask(name, func(tk *sim.Task) {
		tk.Sleep(at, func() { body(tk.Finish) })
	})
}

// once runs one request issued at cycle at.
func (g *grantScenario) once(name string, at sim.Time, req func(then func(uint64))) {
	g.task(name, at, func(done func()) { req(func(uint64) { done() }) })
}

// coreAt returns the lowest-numbered core hops mesh hops from node, other
// than the cores in not.
func (g *grantScenario) coreAt(node, hops int, not ...int) int {
next:
	for c := 0; c < g.s.p.Cores; c++ {
		for _, n := range not {
			if c == n {
				continue next
			}
		}
		if g.s.mesh.Hops(c, node) == hops {
			return c
		}
	}
	g.t.Fatalf("no core %d hops from %d", hops, node)
	return -1
}

func (g *grantScenario) finish(name string) string {
	if err := g.eng.Run(); err != nil {
		g.t.Fatalf("%s: %v", name, err)
	}
	return fmt.Sprintf("scenario %s\n%s\nstats %+v end=%d\n", name, strings.Join(g.lines, "\n"), g.s.Stats, g.eng.Now())
}

// grantScenarios runs every recorded scenario and renders the record.
func grantScenarios(t *testing.T) string {
	var out strings.Builder

	// 64 cores each add 1 to one word with a read-then-CAS loop.
	g := newGrantScenario(t, 64)
	const counter = 0x40000
	for c := 0; c < 64; c++ {
		c := c
		g.task(fmt.Sprintf("c%d", c), sim.Time(c%5), func(done func()) {
			left := 1
			var loop func(uint64)
			loop = func(uint64) {
				if left == 0 {
					done()
					return
				}
				g.read(c, counter, func(v uint64) {
					g.cas(c, counter, v, v+1, func(got uint64) {
						if got == v {
							left--
						}
						loop(0)
					})
				})
			}
			loop(0)
		})
	}
	out.WriteString(g.finish("cas-loop-64"))

	// 127 cores spin on one word until it reads 1; one write by core 0
	// invalidates every sharer, and they all refetch the line.
	g = newGrantScenario(t, 128)
	const flagAddr = 0x50000
	for c := 1; c < 128; c++ {
		c := c
		g.once(fmt.Sprintf("s%d", c), sim.Time(c%7), func(then func(uint64)) {
			g.spin(c, flagAddr, sim.Eq(1), then)
		})
	}
	g.once("w0", 2000, func(then func(uint64)) { g.write(0, flagAddr, 1, then) })
	out.WriteString(g.finish("invalidate-127"))

	// A read holds an L2-resident line from its arrival at T for L2RT
	// cycles, so its serve event runs at T+L2RT. A second read is due at
	// the home in that same cycle: issued before the holder arrived, its
	// arrival is ordered before the serve event; issued during the hold
	// (after the serve was scheduled), it is ordered after it. A write
	// follows both one cycle later.
	for _, order := range []string{"before", "after"} {
		g = newGrantScenario(t, 64)
		const addr = 0x60000 + 27*LineBytes
		g.s.Poke(addr, 7)
		home := g.s.home(Line(addr))
		a := g.coreAt(home, 3)
		ta := sim.Time(g.s.mesh.Latency(a, home))
		serveAt := ta + g.s.p.L2RT
		b := g.coreAt(home, 2, a) // due at serveAt when issued before ta
		if order == "after" {
			b = g.coreAt(home, 1, a) // due at serveAt when issued after ta
		}
		bIssue := serveAt - sim.Time(g.s.mesh.Latency(b, home))
		w := g.coreAt(home, 1, a, b)
		wIssue := serveAt + 1 - sim.Time(g.s.mesh.Latency(w, home))
		g.once("a", 0, func(then func(uint64)) { g.read(a, addr, then) })
		g.once("b", bIssue, func(then func(uint64)) { g.read(b, addr, then) })
		g.once("w", wIssue, func(then func(uint64)) { g.write(w, addr, 9, then) })
		out.WriteString(g.finish("same-cycle-as-serve-" + order))
	}

	// A read holds a line for L2RT cycles. During the hold, the home's own
	// core issues a read that arrives before the release and gets the
	// line, and two far cores issue requests that are still in flight
	// when that second holder releases the line, the farther one issued
	// first. A near core issues a write after the line went free; it
	// arrives between the two far requests.
	g = newGrantScenario(t, 64)
	{
		const addr = 0x70000 + 36*LineBytes
		g.s.Poke(addr, 3)
		home := g.s.home(Line(addr))
		a := g.coreAt(home, 1)
		ta := sim.Time(g.s.mesh.Latency(a, home))
		far := g.coreAt(home, 6)
		farther := g.coreAt(home, 7)
		near := g.coreAt(home, 2, a)
		g.once("a", 0, func(then func(uint64)) { g.read(a, addr, then) })
		g.once("home", ta+1, func(then func(uint64)) { g.read(home, addr, then) })
		g.once("farther", ta+1, func(then func(uint64)) { g.write(farther, addr, 11, then) })
		g.once("far", ta+2, func(then func(uint64)) { g.read(far, addr, then) })
		g.once("near", ta+19, func(then func(uint64)) { g.write(near, addr, 12, then) })
	}
	out.WriteString(g.finish("freed-while-in-flight"))

	// A read holds a line until its serve at T+L2RT, and a second read
	// arrives during the hold. A read of another line, issued after that
	// serve was scheduled, reaches its own home in the serve's cycle, so
	// the second read's grant is ordered after that arrival.
	g = newGrantScenario(t, 64)
	{
		const addr, other = 0x90000 + 27*LineBytes, 0x90000 + 45*LineBytes
		g.s.Poke(addr, 5)
		g.s.Poke(other, 6)
		home, otherHome := g.s.home(Line(addr)), g.s.home(Line(other))
		a := g.coreAt(home, 3)
		ta := sim.Time(g.s.mesh.Latency(a, home))
		b := g.coreAt(home, 1, a)
		x := g.coreAt(otherHome, 1, a, b)
		xIssue := ta + g.s.p.L2RT - sim.Time(g.s.mesh.Latency(x, otherHome))
		g.once("a", 0, func(then func(uint64)) { g.read(a, addr, then) })
		g.once("b", ta+1, func(then func(uint64)) { g.read(b, addr, then) })
		g.once("x", xIssue, func(then func(uint64)) { g.read(x, other, then) })
	}
	out.WriteString(g.finish("grant-behind-arrival"))

	// Cold misses from two cores to two lines served by one memory
	// controller, issued in the same cycle: the second fetch waits for the
	// controller's port.
	g = newGrantScenario(t, 64)
	{
		const x, y = 0x80000 + 5*LineBytes, 0x80000 + 9*LineBytes
		cx, _ := g.s.mesh.ControllerFor(Line(x))
		cy, _ := g.s.mesh.ControllerFor(Line(y))
		if cx != cy {
			t.Fatal("the two lines have different controllers")
		}
		g.s.PokeCold(x, 21)
		g.s.PokeCold(y, 22)
		g.once("x", 0, func(then func(uint64)) { g.read(10, x, then) })
		g.once("y", 0, func(then func(uint64)) { g.read(20, y, then) })
	}
	out.WriteString(g.finish("memory-port"))

	return out.String()
}

// TestGrantScenariosMatchRecorded: contended lines and controller ports
// grant the same requests at the same cycles, in the same order, with the
// same values and counters as the record.
func TestGrantScenariosMatchRecorded(t *testing.T) {
	got := grantScenarios(t)
	if *updateGolden {
		if err := os.WriteFile(grantRecordPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(grantRecordPath)
	if err != nil {
		t.Fatalf("no record (generate with -update-golden): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %q\n want %q", grantRecordPath, i+1, g, w)
			}
		}
	}
}
