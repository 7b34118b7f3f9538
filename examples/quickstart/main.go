// Quickstart: build a 64-core WiSync machine, let every core contribute to
// a global reduction through Broadcast-Memory fetch&add, and close the
// phase with a Tone-channel barrier — the two signature operations of the
// architecture.
package main

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/syncprims"
)

func main() {
	cfg := config.New(config.WiSync, 64)
	m := core.NewMachine(cfg)
	f := syncprims.NewFactory(m)

	sum := f.NewReducer(0)           // a broadcast variable updated by fetch&add
	barrier := f.NewTaskBarrier(nil) // a Tone-channel barrier over all cores

	// Each operation takes a continuation that runs when it completes.
	m.SpawnAllTasks(func(t *core.Task) {
		// Each core computes a partial result...
		t.Compute(100 + 13*t.Core)
		// ...contributes it with a single wireless fetch&add...
		sum.AddTask(t, uint64(t.Core+1), func(uint64) {
			// ...and waits for everyone at the tone barrier.
			barrier.WaitTask(t, func() {
				if t.Core != 0 {
					t.Finish()
					return
				}
				released := m.Now()
				sum.ValueTask(t, func(v uint64) {
					fmt.Printf("after barrier at cycle %d: sum = %d\n", released, v)
					t.Finish()
				})
			})
		})
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("total: %d cycles for 64 fetch&adds + 1 tone barrier\n", m.Now())
	fmt.Printf("wireless messages: %d, collisions: %d, channel utilization: %.2f%%\n",
		m.Net.Stats.Messages, m.Net.Stats.Collisions, 100*m.DataChannelUtilization())
	fmt.Printf("tone barriers completed: %d\n", m.Tone.Stats.Completions)
}
