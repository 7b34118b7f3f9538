// Parallel search with an OR-barrier (paper Section 4.3.2): 64 cores probe
// a key space; the first to find the target triggers the eureka and all
// others stop immediately instead of finishing their shards. The broadcast
// variable makes the "stop everyone" signal a single wireless store.
package main

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
	"wisync/internal/syncprims"
)

func main() {
	const keySpace = 1 << 20
	const target = 777_777

	m := core.NewMachine(config.New(config.WiSync, 64))
	f := syncprims.NewFactory(m)
	eureka := f.NewEureka()

	var finder, probesDone int
	m.SpawnAllTasks(func(t *core.Task) {
		shard := keySpace / 64
		k := t.Core * shard
		end := k + shard
		rng := sim.NewRand(uint64(t.Core))
		var probe func()
		probe = func() {
			if k >= end {
				t.Finish()
				return
			}
			// Probe a block of keys (~costly hash checks).
			t.Compute(200 + rng.Intn(100))
			probesDone++
			if k <= target && target < k+4096 {
				finder = t.Core
				eureka.TriggerTask(t, t.Finish)
				return
			}
			k += 4096
			eureka.TriggeredTask(t, func(fired bool) {
				if fired {
					t.Finish() // someone else found it; stop early
					return
				}
				probe()
			})
		}
		probe()
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("core %d found the key at cycle %d\n", finder, m.Now())
	fmt.Printf("probes executed: %d of %d possible (early stop saved %.0f%%)\n",
		probesDone, 64*(keySpace/64/4096),
		100*(1-float64(probesDone)/float64(64*(keySpace/64/4096))))
}
