package kernels

import (
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/syncprims"
)

// Livermore2 is Livermore loop 2, an excerpt from an incomplete Cholesky
// conjugate gradient: log2(n) wavefront phases, the k-th processing half
// the elements of the previous one, with a global barrier between phases.
// Small vectors are barrier-dominated; large vectors amortize. It returns
// the result vector alongside timing so tests can validate against the
// sequential reference.
func Livermore2(cfg config.Config, n int, passes int) (Result, []float64) {
	m := core.NewMachine(cfg)
	f := syncprims.NewFactory(m)
	tb := f.NewTaskBarrier(nil)
	x := seqVector(2*n, 3)
	v := seqVector(2*n, 7)
	xBase := m.AllocArray(2 * n)
	vBase := m.AllocArray(2 * n)

	// Each phase computes into a staging buffer and publishes after a
	// barrier (the wavefront's first output index coincides with the last
	// element's read index, so in-place parallel updates would race; this
	// is the data alignment step of Sampson et al. [37]).
	staged := make([][]float64, cfg.Cores)

	// stage computes this thread's slice of the wavefront [lo, hi) of
	// ipnt into the staging buffer — the functional half.
	stage := func(core, ipnt, lo, hi int) {
		staged[core] = staged[core][:0]
		for e := lo; e < hi; e++ {
			k := ipnt + 1 + 2*e
			staged[core] = append(staged[core],
				x[k]-v[k]*x[k-1]-v[k+1]*x[k+1])
		}
	}
	// publish copies the staged slice into x after the barrier.
	publish := func(core, ipntp, lo, hi int) {
		for e := lo; e < hi; e++ {
			x[ipntp+e] = staged[core][e-lo]
		}
	}

	m.SpawnAllTasks(func(t *core.Task) {
		rr := newReadRanger(t)
		pass, ii, ipnt, ipntp, lo, hi := 0, 0, 0, 0, 0, 0
		var startPass, wave, afterStage func()
		startPass = func() {
			if pass == passes {
				t.Finish()
				return
			}
			pass++
			ii = n
			ipntp = 0
			wave()
		}
		wave = func() {
			if ii <= 1 {
				startPass()
				return
			}
			ipnt = ipntp
			ipntp += ii
			ii /= 2
			lo, hi = chunk(ii, t.Core, cfg.Cores)
			stage(t.Core, ipnt, lo, hi)
			if hi > lo {
				rlo, rhi := ipnt+2*lo, ipnt+2*hi
				rr.run(xBase, rlo, rhi, 4, func() {
					rr.run(vBase, rlo, rhi, 4, func() {
						tb.WaitTask(t, afterStage)
					})
				})
				return
			}
			tb.WaitTask(t, afterStage)
		}
		afterStage = func() {
			publish(t.Core, ipntp, lo, hi)
			if hi > lo {
				rr.run(xBase, ipntp+lo, ipntp+hi, 1, func() {
					tb.WaitTask(t, wave)
				})
				return
			}
			tb.WaitTask(t, wave)
		}
		startPass()
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	return Result{Outcome: m.Finish(), Iterations: passes}, x
}

// Livermore3 is Livermore loop 3, an inner product: each thread forms a
// partial sum over its chunk, then a reduction combines the partials
// (fetch&add on the Broadcast Memory for WiSync; a coherent RMW for the
// wired machines) and a barrier closes each pass.
func Livermore3(cfg config.Config, n int, passes int) (Result, float64) {
	m := core.NewMachine(cfg)
	f := syncprims.NewFactory(m)
	tb := f.NewTaskBarrier(nil)
	red := f.NewReducer(0)
	z := seqVector(n, 5)
	xv := seqVector(n, 11)
	zBase := m.AllocArray(n)
	xBase := m.AllocArray(n)
	partials := make([]float64, cfg.Cores)

	m.SpawnAllTasks(func(t *core.Task) {
		rr := newReadRanger(t)
		lo, hi := chunk(n, t.Core, cfg.Cores)
		pass := 0
		var iter func()
		iter = func() {
			if pass == passes {
				t.Finish()
				return
			}
			pass++
			var q float64
			for k := lo; k < hi; k++ {
				q += z[k] * xv[k]
			}
			partials[t.Core] = q
			rr.run(zBase, lo, hi, 1, func() {
				rr.run(xBase, lo, hi, 1, func() {
					red.AddTask(t, uint64(int64(q)), func(uint64) {
						tb.WaitTask(t, iter)
					})
				})
			})
		}
		iter()
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	var sum float64
	for _, p := range partials {
		sum += p
	}
	return Result{Outcome: m.Finish(), Iterations: passes}, sum
}

// Livermore6 is Livermore loop 6, a general linear recurrence: step i needs
// all previous w values, so the inner loop parallelizes across threads with
// a barrier per step — n-1 barriers whose enclosed work grows linearly.
// This is the kernel where Baseline+ approaches WiSync at large n (Figure
// 8(c)/(f)): the loop body eventually dominates.
func Livermore6(cfg config.Config, n int) (Result, []float64) {
	m := core.NewMachine(cfg)
	f := syncprims.NewFactory(m)
	tb := f.NewTaskBarrier(nil)
	w := seqVector(n, 13)
	bm := seqVector(n*8, 17) // b(k,i) sampled row-wise
	wBase := m.AllocArray(n)
	bBase := m.AllocArray(n * 8)
	partials := make([]float64, cfg.Cores)

	// accumulate computes this thread's partial of step i; reduce is the
	// serial core-0 section between the two barriers.
	accumulate := func(core, i, lo, hi int) {
		var acc float64
		for k := lo; k < hi; k++ {
			acc += bm[(k*7+i)%(n*8)] * w[i-k-1]
		}
		partials[core] = acc
	}
	reduce := func(i int) {
		var s float64
		for _, p := range partials {
			s += p
		}
		for c := range partials {
			partials[c] = 0
		}
		w[i] += s
	}

	m.SpawnAllTasks(func(t *core.Task) {
		rr := newReadRanger(t)
		i := 1
		var step, serial, next func()
		step = func() {
			if i >= n {
				t.Finish()
				return
			}
			lo, hi := chunk(i, t.Core, cfg.Cores)
			accumulate(t.Core, i, lo, hi)
			if hi > lo {
				rl, rh, wl, wh := lo, hi, i-hi, i-lo
				rr.run(bBase, rl, rh, 2, func() {
					rr.run(wBase, wl, wh, 2, func() {
						tb.WaitTask(t, serial)
					})
				})
				return
			}
			tb.WaitTask(t, serial)
		}
		serial = func() {
			if t.Core == 0 {
				reduce(i)
				t.Write(wBase+uint64(i)*8, 0, func() {
					tb.WaitTask(t, next)
				})
				return
			}
			tb.WaitTask(t, next)
		}
		next = func() { i++; step() }
		step()
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	return Result{Outcome: m.Finish(), Iterations: n - 1}, w
}

// seqVector builds a deterministic pseudo-random vector of small values.
func seqVector(n int, seed uint64) []float64 {
	v := make([]float64, n)
	s := seed
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(s>>60) / 16 // [0, 1)
	}
	return v
}
