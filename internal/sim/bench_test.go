package sim

import "testing"

// BenchmarkScheduleDrain measures raw event-queue throughput: callback
// events pushed at scattered timestamps, then drained in order. ns/op is
// the cost of one schedule + one dispatch; allocs/op must stay 0 — events
// are stored by value in the queue's reused slices. The variants pin both
// levels of the composite queue and their merge:
//
//   - wheel: offsets within the wheel horizon, the simulator's dominant
//     2–110-cycle sleep regime — O(1) bucket pushes, bitmap-scan pops.
//   - heap: offsets past the horizon, so every event takes the 4-ary heap
//     fallback and crosses into the wheel window only as the clock chases
//     it (pure far-future scheduling).
//   - mixed: offsets straddling the horizon, exercising the wheel/heap
//     min-merge on every pop.
func BenchmarkScheduleDrain(b *testing.B) {
	run := func(span int, base Time) func(b *testing.B) {
		return func(b *testing.B) {
			e := NewEngine(1)
			nop := func() {}
			const batch = 512
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				for j := 0; j < batch; j++ {
					// Scattered but deterministic offsets exercise real
					// queue movement rather than FIFO order.
					e.Schedule(base+Time(j*13%span), nop)
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("wheel", run(251, 0))
	b.Run("heap", run(1021, wheelSpan))
	b.Run("mixed", run(1021, 0))
}

// BenchmarkSleepFastPath measures the zero-handoff SleepThen: a single
// task whose continuation is always the next event, so each step collapses
// into an inline clock advance through the trampoline slot — no queue
// push, no pop, no allocation.
func BenchmarkSleepFastPath(b *testing.B) {
	e := NewEngine(1)
	n := b.N
	e.GoTask("solo", func(task *Task) {
		i := 0
		var step func()
		step = func() {
			if i == n {
				task.Finish()
				return
			}
			i++
			e.SleepThen(2, step)
		}
		step()
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
