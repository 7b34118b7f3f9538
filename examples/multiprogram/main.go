// Multiprogramming on one WiSync chip (paper Sections 3.2, 4.4, 5.1): two
// programs share the Broadcast Memory and the Tone channel. Each allocates
// its own tone barrier (the two barriers time-share the channel slots),
// PID tags isolate their BM entries, and a deliberate cross-program access
// demonstrates the protection fault.
package main

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/core"
)

func main() {
	m := core.NewMachine(config.New(config.WiSync, 8))

	// Program A (PID 1) runs on cores 0-3, program B (PID 2) on 4-7.
	// Each gets a broadcast counter and a tone barrier of its own.
	ctrA, _ := m.BM.AllocBare(1, false)
	ctrB, _ := m.BM.AllocBare(2, false)
	barA, _ := m.Tone.AllocateBare(1, []int{0, 1, 2, 3})
	barB, _ := m.Tone.AllocateBare(2, []int{4, 5, 6, 7})

	// program is one thread's body: compute, add to the program's counter,
	// meet at the program's tone barrier; the leader then reports.
	program := func(name string, leader, compute int, ctr uint32, delta uint64, bar uint32) func(*core.Task) {
		return func(t *core.Task) {
			t.Compute(compute)
			t.BMFetchAdd(ctr, delta, func(uint64) {
				t.ToneStore(bar, func() {
					t.ToneWait(bar, 1, func() {
						if t.Core != leader {
							t.Finish()
							return
						}
						t.BMLoad(ctr, func(v uint64) {
							fmt.Printf("program %s: counter=%d, released at cycle %d\n", name, v, m.Now())
							t.Finish()
						})
					})
				})
			})
		}
	}
	for c := 0; c < 4; c++ {
		m.SpawnTask(fmt.Sprintf("A%d", c), c, 1, program("A", 0, 10*(c+1), ctrA, 1, barA))
	}
	for c := 4; c < 8; c++ {
		m.SpawnTask(fmt.Sprintf("B%d", c), c, 2, program("B", 4, 25*(c-3), ctrB, 2, barB))
	}
	if err := m.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("tone barriers completed: %d (both programs, one shared Tone channel)\n",
		m.Tone.Stats.Completions)

	// Protection: program B touching program A's counter faults.
	m.SpawnTask("intruder", 4, 2, func(t *core.Task) {
		err := m.BM.LoadAsync(t.Core, t.PID, ctrA, func(uint64) { t.Finish() })
		if err != nil {
			fmt.Printf("protection works: %v\n", err)
			t.Finish()
		}
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
}
