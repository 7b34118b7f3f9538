package kernels

import (
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
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
	k := core.MachineState[livermore2](m)
	if k.bodyFn == nil {
		k.bodyFn = k.body
	}
	k.tb = syncprims.NewFactory(m).NewTaskBarrier(nil)
	k.cfg, k.n, k.passes = cfg, n, passes
	k.x = seqVector(2*n, 3)
	k.v = seqVector(2*n, 7)
	k.xBase = m.AllocArray(2 * n)
	k.vBase = m.AllocArray(2 * n)
	m.SpawnAllTasks(k.bodyFn)
	if err := m.Run(); err != nil {
		panic(err)
	}
	x := k.x
	return Result{Outcome: m.Finish(), Iterations: passes}, x
}

// livermore2 is Livermore2's shared state, which the machine keeps across
// points.
type livermore2 struct {
	cfg          config.Config
	tb           syncprims.TaskBarrier
	x, v         []float64
	xBase, vBase uint64
	n, passes    int
	bodyFn       func(*core.Task)
}

func (k *livermore2) Release() { k.cfg, k.tb, k.x, k.v = config.Config{}, nil, nil, nil }

// liv2Step is one thread's Livermore2 passes, kept on its task. Each phase
// computes into the staging buffer and publishes after a barrier (the
// wavefront's first output index coincides with the last element's read
// index, so in-place parallel updates would race; this is the data
// alignment step of Sampson et al. [37]).
type liv2Step struct {
	k      *livermore2
	t      *core.Task
	rr     readRanger
	staged []float64

	pass, ii, ipnt, ipntp, lo, hi int

	waveFn, afterXFn, waitStageFn, afterStageFn, waitWaveFn func()
}

func (s *liv2Step) Release() {
	s.k, s.t = nil, nil
	s.rr.release()
}

func (k *livermore2) body(t *core.Task) {
	s := core.TaskState[liv2Step](t)
	if s.waveFn == nil {
		s.waveFn, s.afterXFn = s.wave, s.afterX
		s.waitStageFn, s.afterStageFn, s.waitWaveFn = s.waitStage, s.afterStage, s.waitWave
	}
	s.rr.start(t)
	s.k, s.t = k, t
	s.pass, s.ii, s.ipnt, s.ipntp, s.lo, s.hi = 0, 0, 0, 0, 0, 0
	s.startPass()
}

func (s *liv2Step) startPass() {
	if s.pass == s.k.passes {
		s.t.Finish()
		return
	}
	s.pass++
	s.ii = s.k.n
	s.ipntp = 0
	s.wave()
}

func (s *liv2Step) wave() {
	if s.ii <= 1 {
		s.startPass()
		return
	}
	s.ipnt = s.ipntp
	s.ipntp += s.ii
	s.ii /= 2
	s.lo, s.hi = chunk(s.ii, s.t.Core, s.k.cfg.Cores)
	s.stage()
	if s.hi > s.lo {
		s.rr.run(s.k.xBase, s.ipnt+2*s.lo, s.ipnt+2*s.hi, 4, s.afterXFn)
		return
	}
	s.waitStage()
}

// stage computes this thread's slice [lo, hi) of the wavefront into the
// staging buffer — the functional half.
func (s *liv2Step) stage() {
	x, v := s.k.x, s.k.v
	s.staged = s.staged[:0]
	for e := s.lo; e < s.hi; e++ {
		k := s.ipnt + 1 + 2*e
		s.staged = append(s.staged, x[k]-v[k]*x[k-1]-v[k+1]*x[k+1])
	}
}

func (s *liv2Step) afterX() {
	s.rr.run(s.k.vBase, s.ipnt+2*s.lo, s.ipnt+2*s.hi, 4, s.waitStageFn)
}

func (s *liv2Step) waitStage() { s.k.tb.WaitTask(s.t, s.afterStageFn) }

// afterStage publishes the staged slice into x after the barrier.
func (s *liv2Step) afterStage() {
	copy(s.k.x[s.ipntp+s.lo:s.ipntp+s.hi], s.staged)
	if s.hi > s.lo {
		s.rr.run(s.k.xBase, s.ipntp+s.lo, s.ipntp+s.hi, 1, s.waitWaveFn)
		return
	}
	s.waitWave()
}

func (s *liv2Step) waitWave() { s.k.tb.WaitTask(s.t, s.waveFn) }

// Livermore3 is Livermore loop 3, an inner product: each thread forms a
// partial sum over its chunk, then a reduction combines the partials
// (fetch&add on the Broadcast Memory for WiSync; a coherent RMW for the
// wired machines) and a barrier closes each pass.
func Livermore3(cfg config.Config, n int, passes int) (Result, float64) {
	m := core.NewMachine(cfg)
	k := core.MachineState[livermore3](m)
	if k.bodyFn == nil {
		k.bodyFn = k.body
	}
	f := syncprims.NewFactory(m)
	k.tb = f.NewTaskBarrier(nil)
	k.red = f.NewReducer(0)
	k.cfg, k.n, k.passes = cfg, n, passes
	k.z = seqVector(n, 5)
	k.xv = seqVector(n, 11)
	k.zBase = m.AllocArray(n)
	k.xBase = m.AllocArray(n)
	k.partials = sim.Zeroed(k.partials, cfg.Cores)
	m.SpawnAllTasks(k.bodyFn)
	if err := m.Run(); err != nil {
		panic(err)
	}
	var sum float64
	for _, p := range k.partials {
		sum += p
	}
	return Result{Outcome: m.Finish(), Iterations: passes}, sum
}

// livermore3 is Livermore3's shared state, which the machine keeps across
// points.
type livermore3 struct {
	cfg          config.Config
	tb           syncprims.TaskBarrier
	red          *syncprims.Reducer
	z, xv        []float64
	zBase, xBase uint64
	partials     []float64
	n, passes    int
	bodyFn       func(*core.Task)
}

func (k *livermore3) Release() {
	k.cfg, k.tb, k.red, k.z, k.xv = config.Config{}, nil, nil, nil, nil
}

// liv3Step is one thread's Livermore3 passes, kept on its task.
type liv3Step struct {
	k      *livermore3
	t      *core.Task
	rr     readRanger
	lo, hi int
	pass   int
	q      float64 // this pass's partial sum

	iterFn, afterZFn, afterXFn func()
	onAddFn                    func(uint64)
}

func (s *liv3Step) Release() {
	s.k, s.t = nil, nil
	s.rr.release()
}

func (k *livermore3) body(t *core.Task) {
	s := core.TaskState[liv3Step](t)
	if s.iterFn == nil {
		s.iterFn, s.afterZFn, s.afterXFn, s.onAddFn = s.iter, s.afterZ, s.afterX, s.onAdd
	}
	s.rr.start(t)
	s.k, s.t = k, t
	s.lo, s.hi = chunk(k.n, t.Core, k.cfg.Cores)
	s.pass = 0
	s.iter()
}

func (s *liv3Step) iter() {
	if s.pass == s.k.passes {
		s.t.Finish()
		return
	}
	s.pass++
	var q float64
	for i := s.lo; i < s.hi; i++ {
		q += s.k.z[i] * s.k.xv[i]
	}
	s.q = q
	s.k.partials[s.t.Core] = q
	s.rr.run(s.k.zBase, s.lo, s.hi, 1, s.afterZFn)
}

func (s *liv3Step) afterZ() { s.rr.run(s.k.xBase, s.lo, s.hi, 1, s.afterXFn) }

func (s *liv3Step) afterX() { s.k.red.AddTask(s.t, uint64(int64(s.q)), s.onAddFn) }

func (s *liv3Step) onAdd(uint64) { s.k.tb.WaitTask(s.t, s.iterFn) }

// Livermore6 is Livermore loop 6, a general linear recurrence: step i needs
// all previous w values, so the inner loop parallelizes across threads with
// a barrier per step — n-1 barriers whose enclosed work grows linearly.
// This is the kernel where Baseline+ approaches WiSync at large n (Figure
// 8(c)/(f)): the loop body eventually dominates.
func Livermore6(cfg config.Config, n int) (Result, []float64) {
	m := core.NewMachine(cfg)
	k := core.MachineState[livermore6](m)
	if k.bodyFn == nil {
		k.bodyFn = k.body
	}
	k.tb = syncprims.NewFactory(m).NewTaskBarrier(nil)
	k.cfg, k.n = cfg, n
	k.w = seqVector(n, 13)
	k.bm = seqVector(n*8, 17) // b(k,i) sampled row-wise
	k.wBase = m.AllocArray(n)
	k.bBase = m.AllocArray(n * 8)
	k.partials = sim.Zeroed(k.partials, cfg.Cores)
	m.SpawnAllTasks(k.bodyFn)
	if err := m.Run(); err != nil {
		panic(err)
	}
	w := k.w
	return Result{Outcome: m.Finish(), Iterations: n - 1}, w
}

// livermore6 is Livermore6's shared state, which the machine keeps across
// points.
type livermore6 struct {
	cfg          config.Config
	tb           syncprims.TaskBarrier
	w, bm        []float64
	wBase, bBase uint64
	partials     []float64
	n            int
	bodyFn       func(*core.Task)
}

func (k *livermore6) Release() { k.cfg, k.tb, k.w, k.bm = config.Config{}, nil, nil, nil }

// accumulate computes this thread's partial of step i.
func (k *livermore6) accumulate(core, i, lo, hi int) {
	var acc float64
	for j := lo; j < hi; j++ {
		acc += k.bm[(j*7+i)%(k.n*8)] * k.w[i-j-1]
	}
	k.partials[core] = acc
}

// reduce is the serial core-0 section between the two barriers of step i.
func (k *livermore6) reduce(i int) {
	var s float64
	for _, p := range k.partials {
		s += p
	}
	clear(k.partials)
	k.w[i] += s
}

// liv6Step is one thread's Livermore6 recurrence, kept on its task.
type liv6Step struct {
	k      *livermore6
	t      *core.Task
	rr     readRanger
	i      int
	lo, hi int

	afterBFn, waitSerialFn, serialFn, waitNextFn, nextFn func()
}

func (s *liv6Step) Release() {
	s.k, s.t = nil, nil
	s.rr.release()
}

func (k *livermore6) body(t *core.Task) {
	s := core.TaskState[liv6Step](t)
	if s.serialFn == nil {
		s.afterBFn, s.waitSerialFn, s.serialFn = s.afterB, s.waitSerial, s.serial
		s.waitNextFn, s.nextFn = s.waitNext, s.next
	}
	s.rr.start(t)
	s.k, s.t, s.i = k, t, 1
	s.step()
}

func (s *liv6Step) step() {
	k := s.k
	if s.i >= k.n {
		s.t.Finish()
		return
	}
	s.lo, s.hi = chunk(s.i, s.t.Core, k.cfg.Cores)
	k.accumulate(s.t.Core, s.i, s.lo, s.hi)
	if s.hi > s.lo {
		s.rr.run(k.bBase, s.lo, s.hi, 2, s.afterBFn)
		return
	}
	s.waitSerial()
}

func (s *liv6Step) afterB() {
	s.rr.run(s.k.wBase, s.i-s.hi, s.i-s.lo, 2, s.waitSerialFn)
}

func (s *liv6Step) waitSerial() { s.k.tb.WaitTask(s.t, s.serialFn) }

func (s *liv6Step) serial() {
	if s.t.Core == 0 {
		s.k.reduce(s.i)
		s.t.Write(s.k.wBase+uint64(s.i)*8, 0, s.waitNextFn)
		return
	}
	s.waitNext()
}

func (s *liv6Step) waitNext() { s.k.tb.WaitTask(s.t, s.nextFn) }

func (s *liv6Step) next() {
	s.i++
	s.step()
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
