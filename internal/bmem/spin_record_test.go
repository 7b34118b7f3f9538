package bmem

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// spinRecordPath pins the Broadcast Memory's spin wakes: for each scenario,
// every spinner's release (order, cycle, value seen), the BM loads, the
// engine's queued events and its recycled-step counts. Regenerate with
//
//	go test ./internal/bmem -run TestSpinScenariosMatchRecorded -update-golden
const spinRecordPath = "testdata/spin_scenarios.txt"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+spinRecordPath)

type spinCond = sim.Cond

func ge(k uint64) spinCond { return sim.Ge(k) }
func eq(k uint64) spinCond { return sim.Eq(k) }

// spinScenario drives one word of a 65-node BM: spinners on nodes 0..63,
// writers on the nodes above.
type spinScenario struct {
	t     *testing.T
	eng   *sim.Engine
	b     *BM
	addr  uint32
	lines []string
}

func newSpinScenario(t *testing.T, rt sim.Time) *spinScenario {
	const nodes = 65
	eng := sim.NewEngine(1)
	net := wireless.New(eng, nodes, wireless.DefaultParams())
	p := DefaultParams()
	if rt != 0 {
		p.RT = rt
	}
	b := New(eng, net, nodes, p)
	addr, err := b.AllocBare(1, false)
	if err != nil {
		t.Fatal(err)
	}
	return &spinScenario{t: t, eng: eng, b: b, addr: addr}
}

// spin starts a spin by node on the word; the release is recorded under
// id, and then (if not nil) runs inline in the release.
func (s *spinScenario) spin(id string, node int, c spinCond, then func()) {
	if err := s.b.SpinUntilAsync(node, 1, s.addr, c, func(v uint64) {
		s.lines = append(s.lines, fmt.Sprintf("release %s order=%d at=%d v=%d", id, len(s.lines), s.eng.Now(), v))
		if then != nil {
			then()
		}
	}); err != nil {
		s.t.Error(err)
	}
}

// spinner starts a task that spins on the word from cycle at and finishes
// at its release.
func (s *spinScenario) spinner(node int, at sim.Time, c spinCond) {
	s.eng.GoTask(fmt.Sprintf("s%d", node), func(tk *sim.Task) {
		tk.Sleep(at, func() { s.spin(fmt.Sprintf("s%d", node), node, c, tk.Finish) })
	})
}

// writer starts a task on node that waits until cycle at, then stores
// vals one after another, gap cycles after each commit.
func (s *spinScenario) writer(node int, at, gap sim.Time, vals ...uint64) {
	s.eng.GoTask(fmt.Sprintf("w%d", node), func(tk *sim.Task) {
		var next func()
		next = func() {
			if len(vals) == 0 {
				tk.Finish()
				return
			}
			v := vals[0]
			vals = vals[1:]
			if err := s.b.StoreAsync(node, 1, s.addr, v, func() { tk.Sleep(gap, next) }); err != nil {
				s.t.Error(err)
			}
		}
		tk.Sleep(at, next)
	})
}

func (s *spinScenario) finish(name string) string {
	if err := s.eng.Run(); err != nil {
		s.t.Fatalf("%s: %v", name, err)
	}
	st := s.eng.SchedStats()
	return fmt.Sprintf("scenario %s\n%s\nstats loads=%d wheel=%d heap=%d pool_hits=%d pool_misses=%d end=%d\n",
		name, strings.Join(s.lines, "\n"), s.b.Stats.Loads, st.WheelEvents, st.HeapEvents,
		st.StepPoolHits, st.StepPoolMisses, s.eng.Now())
}

// spinScenarios runs every recorded scenario and renders the record.
func spinScenarios(t *testing.T) string {
	var out strings.Builder

	// 64 spinners with one condition; 63 commits leave them parked, the
	// 64th releases them all.
	s := newSpinScenario(t, 0)
	for n := 0; n < 64; n++ {
		s.spinner(n, 0, ge(64))
	}
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	s.writer(64, 50, 10, vals...)
	out.WriteString(s.finish("one-condition"))

	// Two condition classes interleaved on one word: v >= 3 and v == 5.
	s = newSpinScenario(t, 0)
	for n := 0; n < 48; n++ {
		c := ge(3)
		if (uint64(0x9e3779b97f4a7c15)>>n)&1 == 1 {
			c = eq(5)
		}
		s.spinner(n, sim.Time(n%5), c)
	}
	s.writer(64, 40, 12, 1, 2, 3, 4, 5)
	out.WriteString(s.finish("two-classes"))

	// Spinners that start between a commit and its delivery, some with
	// the parked spinners' condition and one with its own.
	s = newSpinScenario(t, 0)
	for n := 0; n < 16; n++ {
		s.spinner(n, 0, ge(3))
	}
	s.eng.GoTask("w64", func(tk *sim.Task) {
		tk.Sleep(40, func() {
			if err := s.b.StoreAsync(64, 1, s.addr, 1, func() {
				// The commit: its spinners poll RT from now and see the
				// value 2*RT from now.
				for i, c := range []spinCond{ge(3), ge(3), ge(3), eq(2), ge(3), ge(3)} {
					node := 16 + i
					d := sim.Time(i)
					s.eng.GoTask(fmt.Sprintf("s%d", node), func(st *sim.Task) {
						st.Sleep(d, func() { s.spin(fmt.Sprintf("s%d", node), node, c, st.Finish) })
					})
				}
				tk.Sleep(20, func() {
					if err := s.b.StoreAsync(64, 1, s.addr, 2, func() {
						tk.Sleep(20, func() {
							if err := s.b.StoreAsync(64, 1, s.addr, 3, tk.Finish); err != nil {
								t.Error(err)
							}
						})
					}); err != nil {
						t.Error(err)
					}
				})
			}); err != nil {
				t.Error(err)
			}
		})
	})
	out.WriteString(s.finish("join-between"))

	// Released spinners spin again on the same word: the even ones inline
	// in their release, the odd ones three cycles later.
	s = newSpinScenario(t, 0)
	for n := 0; n < 32; n++ {
		id := fmt.Sprintf("s%d", n)
		s.eng.GoTask(id, func(tk *sim.Task) {
			s.spin(id+"#1", n, ge(1), func() {
				again := func() { s.spin(id+"#2", n, ge(2), tk.Finish) }
				if n%2 == 0 {
					s.spin(id+"#2", n, eq(2), tk.Finish)
					return
				}
				tk.Sleep(3, again)
			})
		})
	}
	s.writer(64, 30, 30, 1, 2)
	out.WriteString(s.finish("respin-same-word"))

	// Two commits five cycles apart with RT 4, so the second herd forms
	// before the first delivers; spinners join all through the window.
	s = newSpinScenario(t, 4)
	for n := 0; n < 24; n++ {
		s.spinner(n, 0, ge(2))
	}
	for n := 24; n < 32; n++ {
		s.spinner(n, sim.Time(96+n-24), ge(2))
	}
	for n := 32; n < 40; n++ {
		s.spinner(n, sim.Time(104+n-32), ge(3))
	}
	s.writer(62, 100, 100, 1, 3)
	s.writer(63, 101, 0, 2)
	out.WriteString(s.finish("overlapping-herds"))

	return out.String()
}

// TestSpinScenariosMatchRecorded: spin wakes release the same spinners at
// the same cycles, in the same order, after the same loads, events and
// recycled steps as the record.
func TestSpinScenariosMatchRecorded(t *testing.T) {
	got := spinScenarios(t)
	if *updateGolden {
		if err := os.WriteFile(spinRecordPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(spinRecordPath)
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
				t.Fatalf("%s line %d:\n got  %q\n want %q", spinRecordPath, i+1, g, w)
			}
		}
	}
}
