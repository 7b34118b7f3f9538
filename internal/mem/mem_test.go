package mem

import (
	"fmt"
	"strings"
	"testing"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

func newSys(t *testing.T, cores int) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine(1)
	mesh := noc.New(cores, 4)
	return eng, New(eng, mesh, DefaultParams(cores))
}

// run1 executes body as a single task and returns the cycle at which it
// calls done.
func run1(t *testing.T, eng *sim.Engine, body func(done func())) sim.Time {
	t.Helper()
	var end sim.Time
	eng.GoTask("t0", func(tk *sim.Task) {
		body(func() {
			end = eng.Now()
			tk.Finish()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return end
}

// write stores val at addr: an RMW with a constant write function, then
// runs then.
func write(s *System, core int, addr, val uint64, then func()) {
	s.RMWAsync(core, addr, func(uint64) (uint64, bool) { return val, true }, func(uint64) { then() })
}

// incr atomically increments the word at addr, then runs then.
func incr(s *System, core int, addr uint64, then func()) {
	s.RMWAsync(core, addr, func(v uint64) (uint64, bool) { return v + 1, true }, func(uint64) { then() })
}

// repeat runs body for i = 0..n-1 in sequence, each call continuing with
// next, then runs done.
func repeat(n int, body func(i int, next func()), done func()) {
	i := 0
	var step func()
	step = func() {
		if i == n {
			done()
			return
		}
		i++
		body(i-1, step)
	}
	step()
}

// goTask starts body as a task; body calls done to finish it.
func goTask(eng *sim.Engine, name string, body func(done func())) {
	eng.GoTask(name, func(tk *sim.Task) { body(tk.Finish) })
}

func TestReadMissThenHit(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x1000, 42)
	run1(t, eng, func(done func()) {
		s.ReadAsync(0, 0x1000, func(v uint64) {
			if v != 42 {
				t.Errorf("Read = %d, want 42", v)
			}
			miss := eng.Now()
			s.ReadAsync(0, 0x1000, func(v uint64) {
				if v != 42 {
					t.Errorf("second Read = %d, want 42", v)
				}
				hitLat := eng.Now() - miss
				if hitLat != s.Params().L1RT {
					t.Errorf("hit latency = %d, want %d", hitLat, s.Params().L1RT)
				}
				if miss <= hitLat {
					t.Errorf("miss latency %d not greater than hit latency %d", miss, hitLat)
				}
				done()
			})
		})
	})
	if s.Stats.L1Hits != 1 || s.Stats.L1Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.Stats.L1Hits, s.Stats.L1Misses)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestColdMissPaysMemory(t *testing.T) {
	eng, s := newSys(t, 16)
	s.PokeCold(0x2000, 7)
	lat := run1(t, eng, func(done func()) {
		s.ReadAsync(3, 0x2000, func(v uint64) {
			if v != 7 {
				t.Errorf("Read = %d, want 7", v)
			}
			done()
		})
	})
	if lat < s.Params().MemRT {
		t.Errorf("cold miss latency %d < MemRT %d", lat, s.Params().MemRT)
	}
	if s.Stats.MemFetches != 1 {
		t.Errorf("MemFetches = %d, want 1", s.Stats.MemFetches)
	}
}

func TestExclusiveGrantOnSoleReader(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x40, 1)
	run1(t, eng, func(done func()) {
		s.ReadAsync(2, 0x40, func(uint64) {
			if st := s.L1State(2, 0x40); st != Exclusive {
				t.Errorf("sole reader state = %v, want E", st)
			}
			done()
		})
	})
}

func TestReadSharersAndWriteInvalidates(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x80, 5)
	goTask(eng, "r1", func(done func()) {
		s.ReadAsync(1, 0x80, func(uint64) { done() })
	})
	goTask(eng, "r2", func(done func()) {
		eng.SleepThen(100, func() { s.ReadAsync(2, 0x80, func(uint64) { done() }) })
	})
	goTask(eng, "w3", func(done func()) {
		eng.SleepThen(300, func() {
			write(s, 3, 0x80, 9, func() {
				if st := s.L1State(3, 0x80); st != Modified {
					t.Errorf("writer state = %v, want M", st)
				}
				if s.L1State(1, 0x80) != Invalid || s.L1State(2, 0x80) != Invalid {
					t.Error("readers not invalidated by write")
				}
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Peek(0x80) != 9 {
		t.Errorf("final value = %d, want 9", s.Peek(0x80))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestOwnerForwardsToReader(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x100, 1)
	goTask(eng, "w", func(done func()) { write(s, 0, 0x100, 77, done) })
	goTask(eng, "r", func(done func()) {
		eng.SleepThen(500, func() {
			s.ReadAsync(9, 0x100, func(v uint64) {
				if v != 77 {
					t.Errorf("read from owner = %d, want 77", v)
				}
				// MOESI: previous owner keeps the line in Owned.
				if st := s.L1State(0, 0x100); st != Owned {
					t.Errorf("previous owner state = %v, want O", st)
				}
				if st := s.L1State(9, 0x100); st != Shared {
					t.Errorf("reader state = %v, want S", st)
				}
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Forwards != 1 {
		t.Errorf("Forwards = %d, want 1", s.Stats.Forwards)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRMWAtomicUnderContention(t *testing.T) {
	eng, s := newSys(t, 64)
	s.Poke(0x200, 0)
	const perCore, cores = 20, 64
	for c := 0; c < cores; c++ {
		goTask(eng, fmt.Sprintf("c%d", c), func(done func()) {
			repeat(perCore, func(_ int, next func()) { incr(s, c, 0x200, next) }, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Peek(0x200); got != perCore*cores {
		t.Errorf("counter = %d, want %d (lost updates)", got, perCore*cores)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCASSemantics(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x300, 10)
	run1(t, eng, func(done func()) {
		cas := func(old, nv uint64, then func(bool)) {
			s.RMWAsync(0, 0x300, func(cur uint64) (uint64, bool) {
				return nv, cur == old
			}, func(v uint64) { then(v == old) })
		}
		cas(10, 11, func(ok bool) {
			if !ok {
				t.Error("CAS(10,11) failed on matching value")
			}
			cas(10, 12, func(ok bool) {
				if ok {
					t.Error("CAS(10,12) succeeded on stale value")
				}
				if s.Peek(0x300) != 11 {
					t.Errorf("value = %d, want 11", s.Peek(0x300))
				}
				done()
			})
		})
	})
}

func TestSpinUntilWakesOnWrite(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x400, 0)
	var sawAt sim.Time
	goTask(eng, "spinner", func(done func()) {
		s.SpinUntilAsync(1, 0x400, sim.Eq(1), func(v uint64) {
			if v != 1 {
				t.Errorf("SpinUntil returned %d", v)
			}
			sawAt = eng.Now()
			done()
		})
	})
	goTask(eng, "writer", func(done func()) {
		eng.SleepThen(1000, func() { write(s, 2, 0x400, 1, done) })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt < 1000 {
		t.Errorf("spinner released at %d, before the write", sawAt)
	}
	if sawAt > 1200 {
		t.Errorf("spinner released at %d, too long after the write", sawAt)
	}
}

func TestSpinnerGeneratesNoTrafficWhileCached(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x500, 0)
	goTask(eng, "spinner", func(done func()) {
		s.SpinUntilAsync(1, 0x500, sim.Eq(1), func(uint64) { done() })
	})
	goTask(eng, "observer", func(done func()) {
		eng.SleepThen(5000, func() {
			before := s.Stats.Transactions
			eng.SleepThen(5000, func() {
				if d := s.Stats.Transactions - before; d != 0 {
					t.Errorf("spinner generated %d transactions while cached", d)
				}
				write(s, 2, 0x500, 1, done)
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseStormSerializesAtDirectory(t *testing.T) {
	// N spinners on one line; one writer flips it. All spinners re-fetch,
	// and the refills serialize at the home directory: the last spinner
	// must observe the write much later than the first.
	eng, s := newSys(t, 64)
	s.Poke(0x600, 0)
	var releases []sim.Time
	for c := 1; c < 33; c++ {
		goTask(eng, fmt.Sprintf("s%d", c), func(done func()) {
			s.SpinUntilAsync(c, 0x600, sim.Eq(1), func(uint64) {
				releases = append(releases, eng.Now())
				done()
			})
		})
	}
	goTask(eng, "writer", func(done func()) {
		eng.SleepThen(2000, func() { write(s, 0, 0x600, 1, done) })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != 32 {
		t.Fatalf("%d spinners released, want 32", len(releases))
	}
	minT, maxT := releases[0], releases[0]
	for _, r := range releases {
		if r < minT {
			minT = r
		}
		if r > maxT {
			maxT = r
		}
	}
	if spread := maxT - minT; spread < 100 {
		t.Errorf("release spread = %d cycles; storm did not serialize", spread)
	}
}

func TestTreeBroadcastSpeedsInvalidation(t *testing.T) {
	// Invalidating many sharers should hold the line for less time with
	// the Baseline+ virtual-tree support.
	invTime := func(tree bool) sim.Time {
		eng := sim.NewEngine(1)
		mesh := noc.New(64, 4)
		p := DefaultParams(64)
		p.TreeBroadcast = tree
		s := New(eng, mesh, p)
		s.Poke(0x700, 0)
		for c := 1; c < 64; c++ {
			goTask(eng, fmt.Sprintf("r%d", c), func(done func()) {
				s.ReadAsync(c, 0x700, func(uint64) { done() })
			})
		}
		var lat sim.Time
		goTask(eng, "w", func(done func()) {
			eng.SleepThen(3000, func() {
				start := eng.Now()
				write(s, 0, 0x700, 1, func() {
					lat = eng.Now() - start
					done()
				})
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	serial, tree := invTime(false), invTime(true)
	if tree >= serial {
		t.Errorf("tree invalidation (%d) not faster than serial (%d)", tree, serial)
	}
}

func TestL1EvictionRespectsAssociativity(t *testing.T) {
	eng, s := newSys(t, 16)
	// Touch L1Ways+2 lines mapping to the same set.
	p := s.Params()
	stride := uint64(p.L1Sets) << LineShift
	run1(t, eng, func(done func()) {
		repeat(p.L1Ways+2, func(i int, next func()) {
			s.ReadAsync(0, uint64(i)*stride, func(uint64) { next() })
		}, done)
	})
	if s.Stats.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", s.Stats.Evictions)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestEvictedDirtyLineReturnsHome(t *testing.T) {
	eng, s := newSys(t, 16)
	p := s.Params()
	stride := uint64(p.L1Sets) << LineShift
	run1(t, eng, func(done func()) {
		write(s, 0, 0, 123, func() {
			// Force eviction of line 0 by filling the set.
			repeat(p.L1Ways, func(i int, next func()) {
				s.ReadAsync(0, uint64(i+1)*stride, func(uint64) { next() })
			}, func() {
				if st := s.L1State(0, 0); st != Invalid {
					t.Errorf("dirty line still present: %v", st)
				}
				// Another core reads it; data must come from home, value
				// intact.
				s.ReadAsync(5, 0, func(v uint64) {
					if v != 123 {
						t.Errorf("value after dirty eviction = %d, want 123", v)
					}
					done()
				})
			})
		})
	})
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestRandomizedVsReferenceMemory drives random reads/writes/RMWs from many
// cores and checks full value agreement with a sequential reference at the
// end, plus protocol invariants. This is the core property test for the
// coherence substrate. The second input runs two threads per core, so two
// fills of one line can be in flight to one core when an invalidation
// arrives: both must be dropped.
func TestRandomizedVsReferenceMemory(t *testing.T) {
	const cores = 16
	for _, threads := range []int{cores, 2 * cores} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			randomizedVsReference(t, cores, threads)
		})
	}
}

func randomizedVsReference(t *testing.T, cores, threads int) {
	for trial := 0; trial < 8; trial++ {
		eng := sim.NewEngine(uint64(1000 + trial))
		mesh := noc.New(cores, 4)
		s := New(eng, mesh, DefaultParams(cores))
		const nAddrs = 24
		addrs := make([]uint64, nAddrs)
		for i := range addrs {
			// Some same-line pairs, some distinct lines.
			addrs[i] = uint64(i/2)<<LineShift | uint64(i%2)*8
			s.Poke(addrs[i], 0)
		}
		sum := make([]uint64, threads)
		for th := 0; th < threads; th++ {
			c := th % cores
			goTask(eng, fmt.Sprintf("t%d", th), func(done func()) {
				rng := sim.NewRand(uint64(th*977 + trial))
				repeat(200, func(_ int, next func()) {
					a := addrs[rng.Intn(nAddrs)]
					then := func() { eng.SleepThen(sim.Time(rng.Intn(20)), next) }
					switch rng.Intn(3) {
					case 0:
						s.ReadAsync(c, a, func(v uint64) {
							sum[th] += v
							then()
						})
					case 1:
						write(s, c, a, rng.Uint64()%1000, then)
					case 2:
						incr(s, c, a, then)
					}
				}, done)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Quiesced: every core must observe the same final value for
		// every address when reading through the protocol.
		for c := 0; c < cores; c++ {
			goTask(eng, fmt.Sprintf("check%d", c), func(done func()) {
				repeat(len(addrs), func(i int, next func()) {
					a := addrs[i]
					s.ReadAsync(c, a, func(v uint64) {
						if want := s.Peek(a); v != want {
							t.Errorf("trial %d: core %d reads %d at %#x, want %d", trial, c, v, a, want)
						}
						next()
					})
				}, done)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvariantsCatchFillInFlight stops the engine between a transaction's
// serve and its reply: CheckInvariants must report the fill in flight, and
// pass once the reply has landed.
func TestInvariantsCatchFillInFlight(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x40, 1)
	done := false
	s.ReadAsync(3, 0x40, func(uint64) { done = true })
	for c := sim.Time(1); len(s.l1[3].mshr) == 0 && !done; c++ {
		eng.RunBounded(c)
	}
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Errorf("mid-reply CheckInvariants = %v, want a fill in flight", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("read never completed")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestNewAllocsConstant pins machine construction to a few allocations
// that do not grow with the core count: the L1 tags are one flat array and
// the per-core state one slice.
func TestNewAllocsConstant(t *testing.T) {
	for _, cores := range []int{16, 64, 256} {
		eng := sim.NewEngine(1)
		mesh := noc.New(cores, 4)
		p := DefaultParams(cores)
		allocs := testing.AllocsPerRun(10, func() { New(eng, mesh, p) })
		if allocs > 16 {
			t.Errorf("New at %d cores: %.0f allocations, want at most 16", cores, allocs)
		}
	}
}

func TestIncrementsNeverLost(t *testing.T) {
	// Pure RMW increments from every core across several addresses; total
	// must equal the number of operations.
	eng, s := newSys(t, 32)
	addrs := []uint64{0x0, 0x8, 0x40, 0x48, 0x1000}
	for _, a := range addrs {
		s.Poke(a, 0)
	}
	const opsPerCore = 50
	for c := 0; c < 32; c++ {
		goTask(eng, fmt.Sprintf("c%d", c), func(done func()) {
			rng := sim.NewRand(uint64(c + 7))
			repeat(opsPerCore, func(_ int, next func()) {
				a := addrs[rng.Intn(len(addrs))]
				incr(s, c, a, func() { eng.SleepThen(sim.Time(rng.Intn(10)), next) })
			}, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, a := range addrs {
		total += s.Peek(a)
	}
	if total != 32*opsPerCore {
		t.Errorf("total increments = %d, want %d", total, 32*opsPerCore)
	}
}

func TestHotLinePingPongCost(t *testing.T) {
	// Alternating RMWs from two far-apart cores must each pay an
	// ownership transfer; throughput is bounded by the mesh round trip.
	eng, s := newSys(t, 64)
	s.Poke(0x800, 0)
	var finish sim.Time
	const n = 50
	for _, c := range []int{0, 63} {
		goTask(eng, fmt.Sprintf("c%d", c), func(done func()) {
			repeat(n, func(_ int, next func()) { incr(s, c, 0x800, next) }, func() {
				finish = max(finish, eng.Now())
				done()
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Peek(0x800) != 2*n {
		t.Errorf("counter = %d, want %d", s.Peek(0x800), 2*n)
	}
	perOp := finish / (2 * n)
	if perOp < 20 {
		t.Errorf("per-op cost %d cycles is implausibly cheap for ping-pong", perOp)
	}
}
