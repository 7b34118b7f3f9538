package bmem

import (
	"errors"
	"fmt"
	"testing"

	"wisync/internal/sim"
	"wisync/internal/wireless"
)

func newBM(t *testing.T, nodes int) (*sim.Engine, *BM) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := wireless.New(eng, nodes, wireless.DefaultParams())
	return eng, New(eng, net, nodes, DefaultParams())
}

// newBMEarly builds a BM running the literal Section 4.2.1 early-read RMW
// protocol, which the AFB/withdrawal tests exercise.
func newBMEarly(t *testing.T, nodes int) (*sim.Engine, *BM) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := wireless.New(eng, nodes, wireless.DefaultParams())
	p := DefaultParams()
	p.RMWEarlyRead = true
	return eng, New(eng, net, nodes, p)
}

// goTask starts body as a task; body calls done to finish it.
func goTask(eng *sim.Engine, name string, body func(done func())) {
	eng.GoTask(name, func(tk *sim.Task) { body(tk.Finish) })
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

// fetchAdd runs the Figure 4(a) retry protocol: one RMW attempt at a time
// until AFB stays clear, then runs then.
func fetchAdd(t *testing.T, b *BM, node int, addr uint32, delta uint64, then func()) {
	if err := b.RMWAsync(node, 1, addr, func(v uint64) (uint64, bool) { return v + delta, true },
		func(_ uint64, ok bool) {
			if !ok {
				fetchAdd(t, b, node, addr, delta, then)
				return
			}
			then()
		}); err != nil {
		t.Error(err)
	}
}

func TestAllocLoadStore(t *testing.T) {
	eng, b := newBM(t, 4)
	goTask(eng, "p0", func(done func()) {
		var addr uint32
		addr, err := b.Alloc(0, 1, false, func(bool) {
			if ok, pid := b.Allocated(addr); !ok || pid != 1 {
				t.Fatalf("Allocated = %v/%d, want true/1", ok, pid)
			}
			if err := b.StoreAsync(0, 1, addr, 99, func() {
				if !b.WCB(0) {
					t.Error("WCB clear after completed store")
				}
				if err := b.LoadAsync(0, 1, addr, func(v uint64) {
					if v != 99 {
						t.Errorf("Load = %d, want 99", v)
					}
					done()
				}); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadLatencyIsBMRT(t *testing.T) {
	eng, b := newBM(t, 4)
	goTask(eng, "p0", func(done func()) {
		var addr uint32
		addr, _ = b.Alloc(0, 1, false, func(bool) {
			start := eng.Now()
			if err := b.LoadAsync(0, 1, addr, func(uint64) {
				if d := eng.Now() - start; d != b.Params().RT {
					t.Errorf("load latency = %d, want %d", d, b.Params().RT)
				}
				done()
			}); err != nil {
				t.Fatal(err)
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreVisibleToAllNodesAtCommit(t *testing.T) {
	eng, b := newBM(t, 8)
	var addr uint32
	ready := false
	goTask(eng, "writer", func(done func()) {
		addr, _ = b.Alloc(0, 1, false, func(bool) {
			ready = true
			eng.SleepThen(10, func() { b.StoreAsync(0, 1, addr, 1234, done) })
		})
	})
	for n := 1; n < 8; n++ {
		goTask(eng, fmt.Sprintf("r%d", n), func(done func()) {
			eng.SleepThen(200, func() { // well after commit
				if !ready {
					t.Error("alloc did not complete")
					done()
					return
				}
				if err := b.LoadAsync(n, 1, addr, func(v uint64) {
					if v != 1234 {
						t.Errorf("node %d sees %d, want 1234", n, v)
					}
					done()
				}); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProtectionViolation(t *testing.T) {
	eng, b := newBM(t, 4)
	goTask(eng, "p", func(done func()) {
		var addr uint32
		addr, _ = b.Alloc(0, 1, false, func(bool) {
			err := b.LoadAsync(1, 2, addr, func(uint64) {}) // PID 2 touching PID 1's entry
			var pe *ProtectionError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want ProtectionError", err)
			}
			if pe.PID != 2 || pe.Tag != 1 {
				t.Errorf("ProtectionError = %+v", pe)
			}
			if err := b.StoreAsync(1, 2, addr, 5, func() {}); err == nil {
				t.Error("store with wrong PID succeeded")
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnallocatedAndOutOfRange(t *testing.T) {
	_, b := newBM(t, 4)
	var ae *AddrError
	if err := b.LoadAsync(0, 1, 7, func(uint64) {}); !errors.As(err, &ae) {
		t.Fatalf("unallocated load err = %v", err)
	}
	if err := b.LoadAsync(0, 1, 99999, func(uint64) {}); !errors.As(err, &ae) {
		t.Fatalf("out-of-range load err = %v", err)
	}
}

func TestRMWFetchAddNoContention(t *testing.T) {
	eng, b := newBM(t, 4)
	goTask(eng, "p", func(done func()) {
		var addr uint32
		addr, _ = b.Alloc(0, 1, false, func(bool) {
			err := b.RMWAsync(0, 1, addr, func(v uint64) (uint64, bool) { return v + 5, true }, func(old uint64, ok bool) {
				if !ok || old != 0 {
					t.Fatalf("RMW = (%d, %v)", old, ok)
				}
				if b.Peek(addr) != 5 {
					t.Errorf("value = %d, want 5", b.Peek(addr))
				}
				if b.AFB(0) {
					t.Error("AFB set after clean RMW")
				}
				done()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRMWConflictSetsAFBAndWithdraws(t *testing.T) {
	// Node 1 opens an RMW window; node 0's store to the same address
	// commits first (node 1's transfer is queued behind it), so node 1's
	// atomicity fails: AFB set, nothing broadcast by node 1.
	eng, b := newBMEarly(t, 4)
	var addr uint32
	goTask(eng, "setup", func(done func()) {
		addr, _ = b.Alloc(0, 1, false, func(bool) { done() })
	})
	goTask(eng, "store0", func(done func()) {
		eng.SleepThen(100, func() { b.StoreAsync(0, 1, addr, 7, done) })
	})
	inc := func(v uint64) (uint64, bool) { return v + 1, true }
	goTask(eng, "rmw1", func(done func()) {
		eng.SleepThen(101, func() { // join while node 0's store occupies the channel
			if err := b.RMWAsync(1, 1, addr, inc, func(_ uint64, ok bool) {
				if ok {
					t.Error("RMW reported success despite conflicting commit")
				}
				if !b.AFB(1) {
					t.Error("AFB clear after atomicity failure")
				}
				// Figure 4(a): software retries.
				if err := b.RMWAsync(1, 1, addr, inc, func(old2 uint64, ok2 bool) {
					if !ok2 {
						t.Fatalf("retry RMW ok = %v", ok2)
					}
					if old2 != 7 {
						t.Errorf("retry read %d, want 7", old2)
					}
					if b.Peek(addr) != 8 {
						t.Errorf("final value = %d, want 8", b.Peek(addr))
					}
					done()
				}); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Stats.AFBFailures != 1 {
		t.Errorf("AFBFailures = %d, want 1", b.Stats.AFBFailures)
	}
}

func TestConcurrentFetchAddNoLostUpdates(t *testing.T) {
	// The full software retry protocol: every increment must land exactly
	// once despite collisions and AFB aborts.
	eng, b := newBM(t, 64)
	addr, err := b.AllocBare(1, false)
	if err != nil {
		t.Fatal(err)
	}
	const perNode = 10
	for n := 0; n < 64; n++ {
		goTask(eng, fmt.Sprintf("n%d", n), func(done func()) {
			repeat(perNode, func(_ int, next func()) {
				fetchAdd(t, b, n, addr, 1, func() {
					eng.SleepThen(sim.Time(eng.Rand().Intn(50)), next)
				})
			}, done)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Peek(addr); got != 64*perNode {
		t.Errorf("counter = %d, want %d", got, 64*perNode)
	}
}

func TestCASNoBroadcastOnCompareFailure(t *testing.T) {
	eng, b := newBM(t, 4)
	goTask(eng, "p", func(done func()) {
		var addr uint32
		addr, _ = b.Alloc(0, 1, false, func(bool) {
			b.StoreAsync(0, 1, addr, 3, func() {
				msgsBefore := b.net.Stats.Messages
				err := b.RMWAsync(0, 1, addr, func(v uint64) (uint64, bool) { return 9, v == 42 }, func(old uint64, ok bool) {
					if !ok || old != 3 {
						t.Fatalf("CAS = (%d,%v)", old, ok)
					}
					if b.net.Stats.Messages != msgsBefore {
						t.Error("failed CAS consumed a wireless message")
					}
					if b.Peek(addr) != 3 {
						t.Errorf("value changed to %d on failed CAS", b.Peek(addr))
					}
					done()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkStoreLoad(t *testing.T) {
	eng, b := newBM(t, 4)
	goTask(eng, "p", func(done func()) {
		var addr uint32
		addr, err := b.AllocContiguous(0, 1, 4, func(bool) {
			start := eng.Now()
			if err := b.BulkStoreAsync(0, 1, addr, [4]uint64{10, 20, 30, 40}, func() {
				if d := eng.Now() - start; d != 15 {
					t.Errorf("bulk store took %d cycles, want 15", d)
				}
				if err := b.BulkLoadAsync(1, 1, addr, func(vals [4]uint64) {
					want := [4]uint64{10, 20, 30, 40}
					if vals != want {
						t.Errorf("BulkLoad = %v, want %v", vals, want)
					}
					done()
				}); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkConflictsPendingRMW(t *testing.T) {
	// A bulk store covering the pending RMW's address must abort it
	// (early-read protocol).
	eng, b := newBMEarly(t, 4)
	base, err := b.AllocBareContiguous(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	goTask(eng, "bulk", func(done func()) {
		eng.SleepThen(100, func() { b.BulkStoreAsync(0, 1, base, [4]uint64{1, 2, 3, 4}, done) })
	})
	goTask(eng, "rmw", func(done func()) {
		eng.SleepThen(101, func() {
			if err := b.RMWAsync(1, 1, base+2, func(v uint64) (uint64, bool) { return v + 1, true }, func(_ uint64, ok bool) {
				if ok {
					t.Error("RMW survived a bulk overwrite of its address")
				}
				done()
			}); err != nil {
				t.Fatal(err)
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpinUntilReleasedByRemoteStore(t *testing.T) {
	eng, b := newBM(t, 4)
	addr, _ := b.AllocBare(1, false)
	var woke sim.Time
	goTask(eng, "spinner", func(done func()) {
		if err := b.SpinUntilAsync(1, 1, addr, func(v uint64) bool { return v == 5 }, func(v uint64) {
			if v != 5 {
				t.Errorf("SpinUntil = %d", v)
			}
			woke = eng.Now()
			done()
		}); err != nil {
			t.Error(err)
		}
	})
	goTask(eng, "writer", func(done func()) {
		eng.SleepThen(500, func() { b.StoreAsync(0, 1, addr, 5, done) })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Store commits at ~505; spinner observes within a BM RT or two.
	if woke < 505 || woke > 515 {
		t.Errorf("spinner woke at %d, want 505..515", woke)
	}
}

// spinHerdRun spawns k spinning tasks on one BM word, each waiting for
// v >= 2, then commits 1 and 2 from another node. It returns the spinners
// in release order with their release cycles, the second commit's cycle,
// the BM loads, and the events scheduled between the spawns and the first
// release.
func spinHerdRun(t *testing.T, k int) (order []int, woke []sim.Time, commit2 sim.Time, loads, events uint64) {
	t.Helper()
	const nodes = 65
	eng, b := newBM(t, nodes)
	addr, err := b.AllocBare(1, false)
	if err != nil {
		t.Fatal(err)
	}
	cond := func(v uint64) bool { return v >= 2 }
	scheduled := func() uint64 {
		s := eng.SchedStats()
		return s.WheelEvents + s.HeapEvents
	}
	var spawned uint64
	released := func(i int) {
		if len(order) == 0 {
			events = scheduled() - spawned
		}
		order = append(order, i)
		woke = append(woke, eng.Now())
	}
	for i := 0; i < k; i++ {
		eng.GoTask(fmt.Sprintf("spin%d", i), func(tk *sim.Task) {
			if err := b.SpinUntilAsync(i, 1, addr, cond, func(uint64) {
				released(i)
				// A continuation that sleeps must not move the clock
				// under the spinners released after it.
				tk.Sleep(1, tk.Finish)
			}); err != nil {
				t.Error(err)
			}
		})
	}
	store := func(v uint64, then func()) {
		if err := b.StoreAsync(nodes-1, 1, addr, v, then); err != nil {
			t.Error(err)
		}
	}
	eng.GoTask("writer", func(tk *sim.Task) {
		tk.Sleep(100, func() {
			store(1, func() {
				tk.Sleep(100, func() {
					store(2, func() {
						commit2 = eng.Now()
						tk.Finish()
					})
				})
			})
		})
	})
	spawned = scheduled()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return order, woke, commit2, b.Stats.Loads, events
}

// TestSpinHerdCostsConstantEvents: a commit wakes every spinner on the
// word, and each wake is a replica poll RT later and a delivery RT after
// that. The herd carries those as two events per commit, not two per
// spinner, while releasing the spinners at the same cycle, in the order
// their spins started, after the same loads.
func TestSpinHerdCostsConstantEvents(t *testing.T) {
	rt := DefaultParams().RT
	check := func(name string, k int) uint64 {
		order, woke, commit2, loads, events := spinHerdRun(t, k)
		if len(order) != k {
			t.Fatalf("%s: %d of %d spinners released", name, len(order), k)
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("%s: release order %v, want the order the spins started", name, order)
			}
			if woke[i] != commit2+2*rt {
				t.Fatalf("%s: spinner %d released at %d, want %d (second commit + 2*RT)", name, i, woke[i], commit2+2*rt)
			}
		}
		// One load per spinner at its first poll, and one per commit.
		if want := 3 * uint64(k); loads != want {
			t.Errorf("%s: Stats.Loads = %d, want %d", name, loads, want)
		}
		return events
	}
	few := check("tasks-4", 4)
	many := check("tasks-64", 64)
	if grow := many - few; grow > 64-4 {
		t.Errorf("events grew by %d from 4 to 64 spinners, want at most one per spinner (%d)", grow, 64-4)
	}
}

func TestAllocUntilFullThenSpill(t *testing.T) {
	eng := sim.NewEngine(1)
	net := wireless.New(eng, 2, wireless.DefaultParams())
	p := DefaultParams()
	p.Entries = 8
	b := New(eng, net, 2, p)
	for i := 0; i < 8; i++ {
		if _, err := b.AllocBare(1, false); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := b.AllocBare(1, false); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if b.FreeEntries() != 0 {
		t.Errorf("FreeEntries = %d, want 0", b.FreeEntries())
	}
}

func TestFreeMakesEntryReusable(t *testing.T) {
	eng, b := newBM(t, 4)
	goTask(eng, "p", func(done func()) {
		var addr uint32
		addr, _ = b.Alloc(0, 1, false, func(bool) {
			free0 := b.FreeEntries()
			if err := b.Free(0, 1, addr, func(bool) {
				if b.FreeEntries() != free0+1 {
					t.Error("Free did not release the entry")
				}
				// Another PID can now claim the same address.
				addr2, _ := b.Alloc(1, 2, false, func(bool) {
					if err := b.LoadAsync(0, 1, addr, func(uint64) {}); err == nil {
						t.Error("old owner can still access reallocated entry")
					}
					done()
				})
				if addr2 != addr {
					t.Errorf("expected address reuse, got %d then %d", addr, addr2)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocsDisjoint(t *testing.T) {
	eng, b := newBM(t, 16)
	var addrs []uint32
	for n := 0; n < 16; n++ {
		goTask(eng, fmt.Sprintf("n%d", n), func(done func()) {
			var a uint32
			a, err := b.Alloc(n, uint16(n+1), false, func(bool) {
				addrs = append(addrs, a)
				done()
			})
			if err != nil {
				t.Error(err)
				done()
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("address %d allocated twice", a)
		}
		seen[a] = true
	}
	if len(seen) != 16 {
		t.Errorf("%d distinct addresses, want 16", len(seen))
	}
}

func TestAbortPendingRMWOnContextSwitch(t *testing.T) {
	eng, b := newBMEarly(t, 4)
	addr, _ := b.AllocBare(1, false)
	goTask(eng, "blocker", func(done func()) {
		// Hold the channel so the victim's RMW stays pending.
		b.StoreAsync(0, 1, addr, 1, func() { b.StoreAsync(0, 1, addr, 2, done) })
	})
	goTask(eng, "victim", func(done func()) {
		eng.SleepThen(1, func() {
			if err := b.RMWAsync(1, 1, addr, func(v uint64) (uint64, bool) { return v + 1, true }, func(_ uint64, ok bool) {
				if ok {
					t.Error("RMW succeeded despite OS abort")
				}
				if !b.AFB(1) {
					t.Error("AFB clear after OS abort")
				}
				done()
			}); err != nil {
				t.Fatal(err)
			}
		})
	})
	goTask(eng, "os", func(done func()) {
		eng.SleepThen(4, func() { // while the victim's transfer is queued
			if !b.AbortPendingRMW(1) {
				t.Error("AbortPendingRMW found nothing pending")
			}
			if b.AbortPendingRMW(1) {
				t.Error("second abort reported success")
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaConsistencyRandomized(t *testing.T) {
	// Property: after any interleaving of stores/RMWs from many nodes,
	// all nodes read identical values (single total order of commits).
	for trial := 0; trial < 5; trial++ {
		eng := sim.NewEngine(uint64(50 + trial))
		net := wireless.New(eng, 16, wireless.DefaultParams())
		b := New(eng, net, 16, DefaultParams())
		var addrs []uint32
		for i := 0; i < 6; i++ {
			a, _ := b.AllocBare(1, false)
			addrs = append(addrs, a)
		}
		for n := 0; n < 16; n++ {
			goTask(eng, fmt.Sprintf("n%d", n), func(done func()) {
				rng := sim.NewRand(uint64(n*31 + trial))
				repeat(30, func(_ int, next func()) {
					a := addrs[rng.Intn(len(addrs))]
					pause := func() { eng.SleepThen(sim.Time(rng.Intn(20)), next) }
					if rng.Intn(2) == 0 {
						b.StoreAsync(n, 1, a, rng.Uint64()%100, pause)
						return
					}
					fetchAdd(t, b, n, a, 1, pause)
				}, done)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// One logical replica: verify all reads agree via Load from
		// every node.
		for _, a := range addrs {
			want := b.Peek(a)
			for n := 0; n < 16; n++ {
				goTask(eng, "check", func(done func()) {
					if err := b.LoadAsync(n, 1, a, func(v uint64) {
						if v != want {
							t.Errorf("node %d: %d != %d", n, v, want)
						}
						done()
					}); err != nil {
						t.Error(err)
					}
				})
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
