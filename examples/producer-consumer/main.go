// Producer-consumer over Broadcast Memory (paper Section 4.3.4): a
// producer streams 4-word batches to a consumer through a full/empty flag.
// On WiSync the data moves in single 15-cycle Bulk messages; the same code
// on the Baseline machine pays coherence round trips per word. The example
// prints the per-batch cost on both.
package main

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/syncprims"
)

func main() {
	const batches = 50
	for _, kind := range []config.Kind{config.WiSync, config.Baseline} {
		m := core.NewMachine(config.New(kind, 16))
		f := syncprims.NewFactory(m)
		pc := f.NewPC(4) // 4-word channel: Bulk transfers on WiSync

		var received uint64
		m.SpawnTask("producer", 0, 1, func(t *core.Task) {
			i := 0
			var produce func()
			produce = func() {
				if i == batches {
					t.Finish()
					return
				}
				base := uint64(i * 4)
				i++
				pc.ProduceTask(t, []uint64{base, base + 1, base + 2, base + 3}, produce)
			}
			produce()
		})
		m.SpawnTask("consumer", 15, 1, func(t *core.Task) {
			buf := make([]uint64, 4)
			i := 0
			var consume func()
			consume = func() {
				if i == batches {
					t.Finish()
					return
				}
				i++
				pc.ConsumeTask(t, buf, func() {
					for _, v := range buf {
						received += v
					}
					consume()
				})
			}
			consume()
		})
		if err := m.Run(); err != nil {
			panic(err)
		}
		want := uint64(4*batches) * uint64(4*batches-1) / 2
		fmt.Printf("%-9s: %d batches in %6d cycles (%.0f cycles/batch), checksum %d (want %d)\n",
			kind, batches, m.Now(), float64(m.Now())/batches, received, want)
	}
}
