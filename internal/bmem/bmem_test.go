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

func TestAllocLoadStore(t *testing.T) {
	eng, b := newBM(t, 4)
	eng.Go("p0", func(p *sim.Proc) {
		addr, err := b.Alloc(p, 0, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if ok, pid := b.Allocated(addr); !ok || pid != 1 {
			t.Fatalf("Allocated = %v/%d, want true/1", ok, pid)
		}
		if err := b.Store(p, 0, 1, addr, 99); err != nil {
			t.Fatal(err)
		}
		if !b.WCB(0) {
			t.Error("WCB clear after completed store")
		}
		v, err := b.Load(p, 0, 1, addr)
		if err != nil {
			t.Fatal(err)
		}
		if v != 99 {
			t.Errorf("Load = %d, want 99", v)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadLatencyIsBMRT(t *testing.T) {
	eng, b := newBM(t, 4)
	eng.Go("p0", func(p *sim.Proc) {
		addr, _ := b.Alloc(p, 0, 1, false)
		start := p.Now()
		if _, err := b.Load(p, 0, 1, addr); err != nil {
			t.Fatal(err)
		}
		if d := p.Now() - start; d != b.Params().RT {
			t.Errorf("load latency = %d, want %d", d, b.Params().RT)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreVisibleToAllNodesAtCommit(t *testing.T) {
	eng, b := newBM(t, 8)
	var addr uint32
	ready := false
	eng.Go("writer", func(p *sim.Proc) {
		a, _ := b.Alloc(p, 0, 1, false)
		addr = a
		ready = true
		p.Sleep(10)
		b.Store(p, 0, 1, addr, 1234)
	})
	for n := 1; n < 8; n++ {
		n := n
		eng.Go(fmt.Sprintf("r%d", n), func(p *sim.Proc) {
			p.Sleep(200) // well after commit
			if !ready {
				t.Error("alloc did not complete")
				return
			}
			v, err := b.Load(p, n, 1, addr)
			if err != nil {
				t.Fatal(err)
			}
			if v != 1234 {
				t.Errorf("node %d sees %d, want 1234", n, v)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProtectionViolation(t *testing.T) {
	eng, b := newBM(t, 4)
	eng.Go("p", func(p *sim.Proc) {
		addr, _ := b.Alloc(p, 0, 1, false)
		_, err := b.Load(p, 1, 2, addr) // PID 2 touching PID 1's entry
		var pe *ProtectionError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want ProtectionError", err)
		}
		if pe.PID != 2 || pe.Tag != 1 {
			t.Errorf("ProtectionError = %+v", pe)
		}
		if err := b.Store(p, 1, 2, addr, 5); err == nil {
			t.Error("store with wrong PID succeeded")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnallocatedAndOutOfRange(t *testing.T) {
	eng, b := newBM(t, 4)
	eng.Go("p", func(p *sim.Proc) {
		var ae *AddrError
		_, err := b.Load(p, 0, 1, 7)
		if !errors.As(err, &ae) {
			t.Fatalf("unallocated load err = %v", err)
		}
		_, err = b.Load(p, 0, 1, 99999)
		if !errors.As(err, &ae) {
			t.Fatalf("out-of-range load err = %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRMWFetchAddNoContention(t *testing.T) {
	eng, b := newBM(t, 4)
	eng.Go("p", func(p *sim.Proc) {
		addr, _ := b.Alloc(p, 0, 1, false)
		old, ok, err := b.RMW(p, 0, 1, addr, func(v uint64) (uint64, bool) { return v + 5, true })
		if err != nil || !ok || old != 0 {
			t.Fatalf("RMW = (%d, %v, %v)", old, ok, err)
		}
		if b.Peek(addr) != 5 {
			t.Errorf("value = %d, want 5", b.Peek(addr))
		}
		if b.AFB(0) {
			t.Error("AFB set after clean RMW")
		}
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
	eng.Go("setup", func(p *sim.Proc) {
		addr, _ = b.Alloc(p, 0, 1, false)
	})
	eng.Go("store0", func(p *sim.Proc) {
		p.Sleep(100)
		b.Store(p, 0, 1, addr, 7)
	})
	eng.Go("rmw1", func(p *sim.Proc) {
		p.Sleep(101) // join while node 0's store occupies the channel
		old, ok, err := b.RMW(p, 1, 1, addr, func(v uint64) (uint64, bool) { return v + 1, true })
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("RMW reported success despite conflicting commit")
		}
		if !b.AFB(1) {
			t.Error("AFB clear after atomicity failure")
		}
		_ = old
		// Figure 4(a): software retries.
		old2, ok2, err := b.RMW(p, 1, 1, addr, func(v uint64) (uint64, bool) { return v + 1, true })
		if err != nil || !ok2 {
			t.Fatalf("retry RMW = (%v, %v)", ok2, err)
		}
		if old2 != 7 {
			t.Errorf("retry read %d, want 7", old2)
		}
		if b.Peek(addr) != 8 {
			t.Errorf("final value = %d, want 8", b.Peek(addr))
		}
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
	var addr uint32
	a, err := b.AllocBare(1, false)
	if err != nil {
		t.Fatal(err)
	}
	addr = a
	const perNode = 10
	for n := 0; n < 64; n++ {
		n := n
		eng.Go(fmt.Sprintf("n%d", n), func(p *sim.Proc) {
			for i := 0; i < perNode; i++ {
				for {
					_, ok, err := b.RMW(p, n, 1, addr, func(v uint64) (uint64, bool) { return v + 1, true })
					if err != nil {
						t.Error(err)
						return
					}
					if ok {
						break
					}
				}
				p.Sleep(sim.Time(p.Engine().Rand().Intn(50)))
			}
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
	eng.Go("p", func(p *sim.Proc) {
		addr, _ := b.Alloc(p, 0, 1, false)
		b.Store(p, 0, 1, addr, 3)
		msgsBefore := b.net.Stats.Messages
		old, ok, err := b.RMW(p, 0, 1, addr, func(v uint64) (uint64, bool) { return 9, v == 42 })
		if err != nil || !ok || old != 3 {
			t.Fatalf("CAS = (%d,%v,%v)", old, ok, err)
		}
		if b.net.Stats.Messages != msgsBefore {
			t.Error("failed CAS consumed a wireless message")
		}
		if b.Peek(addr) != 3 {
			t.Errorf("value changed to %d on failed CAS", b.Peek(addr))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkStoreLoad(t *testing.T) {
	eng, b := newBM(t, 4)
	eng.Go("p", func(p *sim.Proc) {
		addr, err := b.AllocContiguous(p, 0, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if err := b.BulkStore(p, 0, 1, addr, [4]uint64{10, 20, 30, 40}); err != nil {
			t.Fatal(err)
		}
		if d := p.Now() - start; d != 15 {
			t.Errorf("bulk store took %d cycles, want 15", d)
		}
		vals, err := b.BulkLoad(p, 1, 1, addr)
		if err != nil {
			t.Fatal(err)
		}
		want := [4]uint64{10, 20, 30, 40}
		if vals != want {
			t.Errorf("BulkLoad = %v, want %v", vals, want)
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
	eng.Go("bulk", func(p *sim.Proc) {
		p.Sleep(100)
		b.BulkStore(p, 0, 1, base, [4]uint64{1, 2, 3, 4})
	})
	eng.Go("rmw", func(p *sim.Proc) {
		p.Sleep(101)
		_, ok, err := b.RMW(p, 1, 1, base+2, func(v uint64) (uint64, bool) { return v + 1, true })
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("RMW survived a bulk overwrite of its address")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpinUntilReleasedByRemoteStore(t *testing.T) {
	eng, b := newBM(t, 4)
	addr, _ := b.AllocBare(1, false)
	var woke sim.Time
	eng.Go("spinner", func(p *sim.Proc) {
		v, err := b.SpinUntil(p, 1, 1, addr, func(v uint64) bool { return v == 5 })
		if err != nil || v != 5 {
			t.Errorf("SpinUntil = (%d, %v)", v, err)
		}
		woke = p.Now()
	})
	eng.Go("writer", func(p *sim.Proc) {
		p.Sleep(500)
		b.Store(p, 0, 1, addr, 5)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Store commits at ~505; spinner observes within a BM RT or two.
	if woke < 505 || woke > 515 {
		t.Errorf("spinner woke at %d, want 505..515", woke)
	}
}

// spinHerdRun spawns k spinners on one BM word, each waiting for v >= 2,
// then commits 1 and 2 from another node. Spinner procAt (none if
// negative) is a blocking-face process; the others are tasks. It returns
// the spinners in release order with their release cycles, the second
// commit's cycle, the BM loads, and the events scheduled between the
// spawns and the first release.
func spinHerdRun(t *testing.T, k, procAt int) (order []int, woke []sim.Time, commit2 sim.Time, loads, events uint64) {
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
		i := i
		if i == procAt {
			eng.Go(fmt.Sprintf("spin%d", i), func(p *sim.Proc) {
				if _, err := b.SpinUntil(p, i, 1, addr, cond); err != nil {
					t.Error(err)
				}
				released(i)
			})
			continue
		}
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
	check := func(name string, k, procAt int) uint64 {
		order, woke, commit2, loads, events := spinHerdRun(t, k, procAt)
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
	few := check("tasks-4", 4, -1)
	many := check("tasks-64", 64, -1)
	if grow := many - few; grow > 64-4 {
		t.Errorf("events grew by %d from 4 to 64 spinners, want at most one per spinner (%d)", grow, 64-4)
	}
	check("tasks-with-proc", 8, 1)
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
	eng.Go("p", func(p *sim.Proc) {
		addr, _ := b.Alloc(p, 0, 1, false)
		free0 := b.FreeEntries()
		if err := b.Free(p, 0, 1, addr); err != nil {
			t.Fatal(err)
		}
		if b.FreeEntries() != free0+1 {
			t.Error("Free did not release the entry")
		}
		// Another PID can now claim the same address.
		addr2, _ := b.Alloc(p, 1, 2, false)
		if addr2 != addr {
			t.Errorf("expected address reuse, got %d then %d", addr, addr2)
		}
		if _, err := b.Load(p, 0, 1, addr); err == nil {
			t.Error("old owner can still access reallocated entry")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocsDisjoint(t *testing.T) {
	eng, b := newBM(t, 16)
	addrs := make(chan uint32, 16)
	for n := 0; n < 16; n++ {
		n := n
		eng.Go(fmt.Sprintf("n%d", n), func(p *sim.Proc) {
			a, err := b.Alloc(p, n, uint16(n+1), false)
			if err != nil {
				t.Error(err)
				return
			}
			addrs <- a
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	close(addrs)
	seen := map[uint32]bool{}
	for a := range addrs {
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
	eng.Go("blocker", func(p *sim.Proc) {
		// Hold the channel so the victim's RMW stays pending.
		b.Store(p, 0, 1, addr, 1)
		b.Store(p, 0, 1, addr, 2)
	})
	eng.Go("victim", func(p *sim.Proc) {
		p.Sleep(1)
		_, ok, err := b.RMW(p, 1, 1, addr, func(v uint64) (uint64, bool) { return v + 1, true })
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("RMW succeeded despite OS abort")
		}
		if !b.AFB(1) {
			t.Error("AFB clear after OS abort")
		}
	})
	eng.Go("os", func(p *sim.Proc) {
		p.Sleep(4) // while the victim's transfer is queued
		if !b.AbortPendingRMW(1) {
			t.Error("AbortPendingRMW found nothing pending")
		}
		if b.AbortPendingRMW(1) {
			t.Error("second abort reported success")
		}
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
			n := n
			eng.Go(fmt.Sprintf("n%d", n), func(p *sim.Proc) {
				rng := sim.NewRand(uint64(n*31 + trial))
				for i := 0; i < 30; i++ {
					a := addrs[rng.Intn(len(addrs))]
					if rng.Intn(2) == 0 {
						b.Store(p, n, 1, a, rng.Uint64()%100)
					} else {
						for {
							_, ok, _ := b.RMW(p, n, 1, a, func(v uint64) (uint64, bool) { return v + 1, true })
							if ok {
								break
							}
						}
					}
					p.Sleep(sim.Time(rng.Intn(20)))
				}
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
				n, a, want := n, a, want
				eng.Go("check", func(p *sim.Proc) {
					v, err := b.Load(p, n, 1, a)
					if err != nil || v != want {
						t.Errorf("node %d: %d != %d (%v)", n, v, want, err)
					}
				})
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
