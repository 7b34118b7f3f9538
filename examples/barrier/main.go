// Barrier shoot-out: the paper's Figure 7 in miniature. Runs a tight
// barrier loop on all four Table 2 machines at several core counts and
// prints cycles per barrier episode, showing the centralized barrier
// degrading with core count while the Tone barrier stays flat.
package main

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/syncprims"
)

func main() {
	const episodes = 20
	fmt.Printf("%-8s", "cores")
	for _, k := range config.Kinds {
		fmt.Printf("%12s", k)
	}
	fmt.Println(" (cycles/barrier)")
	for _, cores := range []int{16, 64, 128} {
		fmt.Printf("%-8d", cores)
		for _, k := range config.Kinds {
			m := core.NewMachine(config.New(k, cores))
			b := syncprims.NewFactory(m).NewTaskBarrier(nil)
			m.SpawnAllTasks(func(t *core.Task) {
				e := 0
				var episode func()
				episode = func() {
					if e == episodes {
						t.Finish()
						return
					}
					e++
					t.Compute(50)
					b.WaitTask(t, episode)
				}
				episode()
			})
			if err := m.Run(); err != nil {
				panic(err)
			}
			fmt.Printf("%12d", m.Now()/episodes)
		}
		fmt.Println()
	}
}
