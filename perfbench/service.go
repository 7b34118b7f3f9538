package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/harness"
	"wisync/internal/wireless"
)

// jobSpec is a sweep job in the server's wire form: one workload crossed
// with kinds, core counts and seeds.
type jobSpec struct {
	Workload string   `json:"workload"`
	Kinds    []string `json:"kinds"`
	Cores    []int    `json:"cores"`
	Seeds    []uint64 `json:"seeds"`
	Iters    int      `json:"iters,omitempty"`
	MAC      string   `json:"mac,omitempty"`
	Channel  string   `json:"channel,omitempty"`
}

// specs expands the job as the server does (kinds × cores × seeds, in that
// nesting), so row i of the stream is the in-process run of spec i.
func (j jobSpec) specs() ([]harness.PointSpec, error) {
	var mac wireless.MACKind
	if j.MAC != "" {
		var ok bool
		if mac, ok = wireless.ParseMACKind(j.MAC); !ok {
			return nil, fmt.Errorf("unknown MAC %q", j.MAC)
		}
	}
	ch := channel.Ideal
	if j.Channel != "" {
		var ok bool
		if ch, ok = channel.ParseProfile(j.Channel); !ok {
			return nil, fmt.Errorf("unknown channel %q", j.Channel)
		}
	}
	var out []harness.PointSpec
	for _, kn := range j.Kinds {
		k, ok := config.ParseKind(kn)
		if !ok {
			return nil, fmt.Errorf("unknown kind %q", kn)
		}
		for _, c := range j.Cores {
			for _, s := range j.Seeds {
				n, err := harness.PointSpec{Workload: j.Workload, Kind: k, Cores: c, Seed: s,
					Iters: j.Iters, MAC: mac, Channel: ch}.Normalize()
				if err != nil {
					return nil, err
				}
				out = append(out, n)
			}
		}
	}
	return out, nil
}

// serviceTemplates are the job shapes of one pass, each issued once per
// pass with a fresh seed: the kernels and two applications at 16 and 32
// cores on two kinds, plus the non-default MACs (token, adaptive) and the
// lossy burst channel, which only this workload exercises.
var serviceTemplates = []jobSpec{
	{Workload: "tightloop", Kinds: []string{"Baseline", "WiSync"}},
	{Workload: "livermore2", Kinds: []string{"Baseline+", "WiSyncNoT"}},
	{Workload: "livermore3", Kinds: []string{"Baseline", "WiSync"}},
	{Workload: "livermore6", Kinds: []string{"Baseline+", "WiSync"}},
	{Workload: "cas-fifo", Kinds: []string{"Baseline", "WiSyncNoT"}},
	{Workload: "app:streamcluster", Kinds: []string{"Baseline", "WiSync"}, Iters: 2},
	{Workload: "app:radiosity", Kinds: []string{"Baseline+", "WiSyncNoT"}, Iters: 2},
	{Workload: "tightloop", Kinds: []string{"WiSyncNoT", "WiSync"}, MAC: "token"},
	{Workload: "cas-add", Kinds: []string{"WiSyncNoT", "WiSync"}, MAC: "adaptive"},
	{Workload: "livermore2", Kinds: []string{"WiSyncNoT", "WiSync"}, Channel: "burst"},
}

// serviceCores are the core counts every job crosses.
var serviceCores = []int{16, 32}

// streamJob is one job of the stream: its wire body, its expansion, and
// which earlier job it repeats verbatim (-1 for a fresh job).
type streamJob struct {
	spec    jobSpec
	body    []byte
	points  []harness.PointSpec
	repeats int
}

// jobStream generates the seeded job stream pass by pass. Every pass holds
// each template once with a fresh seed, in a seeded order, and as many
// jobs again that repeat an earlier fresh job verbatim, so roughly half
// the jobs hit the cache and the shape counts are the same for any seed.
type jobStream struct {
	seed  uint64
	jobs  []streamJob // every job issued so far
	fresh []int       // indexes of fresh jobs in jobs
}

func (st *jobStream) pass(p int) ([]int, error) {
	n := len(serviceTemplates)
	rnd := splitmix(st.seed ^ uint64(p+1)<<32)
	next := func() uint64 { rnd = splitmix(rnd); return rnd }
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	// Slots: n fresh and n repeats, shuffled; a repeat needs a fresh job
	// before it, which only the very first slot of the stream lacks.
	kinds := make([]bool, 2*n) // true: fresh
	for i := 0; i < n; i++ {
		kinds[i] = true
	}
	for i := 2*n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	if len(st.fresh) == 0 && !kinds[0] {
		for i := range kinds {
			if kinds[i] {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
	}
	var out []int
	f := 0
	for slot, fresh := range kinds {
		if !fresh {
			src := st.fresh[int(next()%uint64(len(st.fresh)))]
			j := st.jobs[src]
			j.repeats = src
			st.jobs = append(st.jobs, j)
			out = append(out, len(st.jobs)-1)
			continue
		}
		js := serviceTemplates[order[f]]
		f++
		js.Cores = serviceCores
		j, err := freshJob(js, 1000+splitmix(st.seed^uint64(p)<<24^uint64(slot)<<8^0x5e)%1_000_000_000)
		if err != nil {
			return nil, err
		}
		st.jobs = append(st.jobs, j)
		st.fresh = append(st.fresh, len(st.jobs)-1)
		out = append(out, len(st.jobs)-1)
	}
	return out, nil
}

// twin returns the stand-in for fresh job ji in a later measuring round:
// the same shape with a seed of its own. Twin seeds lie above every stream
// seed, so the server has never simulated a twin's points.
func (st *jobStream) twin(ji, round int) (streamJob, error) {
	return freshJob(st.jobs[ji].spec, 2_000_000_000+splitmix(st.seed^uint64(ji)<<16^uint64(round))%1_000_000_000)
}

// freshJob is job shape js with one simulation seed.
func freshJob(js jobSpec, seed uint64) (streamJob, error) {
	js.Seeds = []uint64{seed}
	pts, err := js.specs()
	if err != nil {
		return streamJob{}, err
	}
	body, err := json.Marshal(js)
	if err != nil {
		return streamJob{}, err
	}
	return streamJob{spec: js, body: body, points: pts, repeats: -1}, nil
}

// warmupJob spawns both worker subprocesses: four points on two workers.
var warmupJob = []byte(`{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"seeds":[1,2,3,4]}`)

// serviceMinPasses is the least number of passes a service run makes: ten
// hit and ten miss jobs a pass, so each p90 has its ten samples beyond it.
const serviceMinPasses = 10

// serviceSample is how many delivered rows are re-run in process after
// the timed window and compared byte for byte.
const serviceSample = 12

// serviceRounds is how many times each job slot of a pass is measured,
// a whole round of the pass apart; maxRedo is how many more times a cold
// start is made when the host's steal counter moved while it ran.
const (
	serviceRounds = 3
	maxRedo       = 3
)

// runService measures the service workload: set-up over fresh servers,
// then one closed-loop client over the seeded job stream until the time
// budget is spent, calibrating after every job while nothing is in flight.
// A job is timed by wall clock, from POST to trailer.
//
// Steal and other host interference only ever add time. In a heavy
// stretch on the 2-vCPU VM the host's steal counter moved during a third
// of the jobs, and steal comes in quanta of up to tens of milliseconds:
// enough to move every percentile of jobs that last 1 to 20 ms. So every
// pass is measured in serviceRounds rounds. Round 0 posts the stream's
// jobs; the later rounds post each repeated job again and, for each fresh
// job, a twin of the same shape with a seed of its own. A slot's latency is its fastest measurement among those
// whose window the host's steal counter did not move (the fastest of all
// if none). Interference rarely strikes a slot in every round, a round
// apart.
func runService(o runOpts, rec *record, ck *checker) (map[string]metric, error) {
	if err := becomeSubreaper(); err != nil {
		return nil, err
	}
	// The calibration loop reads the CPU clock of the thread it runs on.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cal := newCalibrator()
	logPath := filepath.Join(o.out, fmt.Sprintf("server-%s-seed%d.log", o.workload, o.seed))

	// Set-up: server exec → /readyz 200 → a warm-up job on both workers.
	// A cold start whose window saw steal is made again.
	var coldWall, coldCPU []time.Duration
	for i := 0; i < coldStarts; i++ {
		for a := 0; ; a++ {
			s0 := stealTicks()
			t0 := time.Now()
			s, err := startServer(o.bin, "proc", logPath)
			if err != nil {
				return nil, err
			}
			_, err = s.post(warmupJob)
			d := time.Since(t0)
			cpu := procCPU(s.pids())
			stolen := stealTicks() != s0
			s.stop()
			if err != nil {
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
			if stolen {
				rec.Stolen++
			}
			if !stolen || a == maxRedo {
				coldWall, coldCPU = append(coldWall, d), append(coldCPU, cpu)
				break
			}
		}
	}

	srv, err := startServer(o.bin, "proc", logPath)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	ck.attempt(1)
	if _, err := srv.post(warmupJob); err != nil {
		ck.fail("warm-up job: %v", err)
	}
	st0, err := srv.stats()
	if err != nil {
		return nil, err
	}
	svcPIDs := srv.pids()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ld := &layerData{}
	stream := &jobStream{seed: o.seed}
	first := map[int][]rowMsg{} // fresh job index → its rows
	h := sha256.New()
	var exact exactTotals
	var passes []passTiming
	var firstRowMS []float64
	var rssMB float64
	start := time.Now()
	for pass := 0; (pass < serviceMinPasses || time.Since(start) < o.seconds) && time.Since(start) < o.seconds+time.Minute; pass++ {
		idx, err := stream.pass(pass)
		if err != nil {
			return nil, err
		}
		pt := passTiming{traced: o.trace && pass%2 == 1}
		best := make([]*timedJob, len(idx)) // per slot: the measurement that counts
		for round := 0; round < serviceRounds; round++ {
			for slot, ji := range idx {
				if time.Since(start) > o.seconds+time.Minute {
					break // failing jobs are timing out; the run stops, counted incorrect
				}
				j := stream.jobs[ji]
				if round > 0 && j.repeats < 0 {
					if j, err = stream.twin(ji, round); err != nil {
						return nil, err
					}
				}
				ck.attempt(1)
				tj, err := timeJob(srv, svcPIDs, cal, j.body)
				pt.calWall = append(pt.calWall, tj.calWall.Seconds())
				pt.calCPU = append(pt.calCPU, tj.calCPU.Seconds())
				if err == nil {
					err = checkJob(j, tj.r, first)
				}
				if err != nil {
					ck.fail("job %d (%s), round %d: %v", ji, j.spec.Workload, round, err)
					continue
				}
				if tj.stolen {
					rec.Stolen++
				}
				if b := best[slot]; b == nil || tj.beats(*b) {
					best[slot] = &tj
				}
				if round > 0 {
					continue
				}
				if j.repeats < 0 {
					first[ji] = tj.r.rows
				}
				if pass < minPasses {
					for _, m := range tj.r.rows {
						fmt.Fprintln(h, m.ID+"\t"+m.Row)
						if err := exact.addRow(m.Row); err != nil {
							ck.fail("%v", err)
						}
					}
				}
			}
		}
		for slot, tj := range best {
			if tj == nil {
				continue // every measurement failed, which is already counted
			}
			r := tj.r
			hit := r.cached == len(r.rows)
			pt.wall = append(pt.wall, r.latency.Seconds())
			pt.cpu = append(pt.cpu, tj.cpu.Seconds())
			pt.hit = append(pt.hit, hit)
			pt.rows += len(r.rows)
			if pt.traced {
				item := fmt.Sprintf("job%d", idx[slot])
				end := r.start.Add(r.latency)
				fr := r.start.Add(r.firstRow)
				root := tr.add("job", item, 0, r.start, end)
				tr.add("first_row", item, root, r.start, fr)
				tr.add("stream", item, root, fr, end)
				if !hit {
					firstRowMS = append(firstRowMS, float64(r.firstRow.Nanoseconds())/1e6)
				}
			}
		}
		passes = append(passes, pt)
		if pass == serviceMinPasses-1 {
			// The footprint after a fixed amount of work: the cache keeps
			// growing with every job, and how many jobs a run gets
			// through depends on the host.
			if rssMB, err = peakRSS(srv.cmd.Process.Pid); err != nil {
				return nil, err
			}
		}
	}
	rec.Wall["window_s"] = time.Since(start).Seconds()
	st1, err := srv.stats()
	if err != nil {
		return nil, err
	}
	stopped = true
	srv.stop()

	ck.attempt(1)
	rejected := st1.Rejected429 - st0.Rejected429
	var restarts, crashes uint64
	if st1.Pool != nil {
		restarts, crashes = st1.Pool.Restarts, st1.Pool.Crashes
	}
	if rejected != 0 || st1.ErrorRows != 0 || restarts != 0 || crashes != 0 {
		ck.fail("server counted %d 429s and %d error rows; worker pool %d restarts, %d crashes",
			rejected, st1.ErrorRows, restarts, crashes)
	}
	sample := verifySample(o, ck, ld, stream, first)

	rec.Clock = wallClock
	rec.Passes = len(passes)
	rec.RowsHash = hex.EncodeToString(h.Sum(nil))
	rec.Exact = exact
	rec.Calib = summarizeCalib(passes)

	if o.trace {
		hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
		ld.cacheHitRatio = ratio(float64(hits), float64(hits+misses))
		ld.restarts, ld.crashes = float64(restarts), float64(crashes)
		ld.rejected, ld.errorRows = float64(rejected), float64(st1.ErrorRows)
		ld.firstRowMS = median(firstRowMS)
		if ld.roundtripUS, err = roundtrip(o, tr, logPath); err != nil {
			return nil, err
		}
		for _, p := range sample {
			sp := tr.begin("spec", p.spec.ID(), 0)
			if err := prepareSpecs([]benchPoint{p}); err != nil {
				ck.fail("%v", err)
			}
			tr.end(sp)
		}
		// The first pass's fresh jobs stand for the workload's point
		// configurations in the build and apps.Run spans.
		var pts []benchPoint
		for _, ji := range stream.fresh[:len(serviceTemplates)] {
			for _, p := range stream.jobs[ji].points {
				pts = append(pts, benchPoint{spec: p})
			}
		}
		if err := finishTrace(o, rec, tr, ld, &exact, pts, passes, wallClock); err != nil {
			return nil, err
		}
		return layerMetrics(ld, exact), nil
	}

	// Cold starts are scaled by the whole run's calibration. The loop's
	// wall-clock samples spread by about a quarter around their median, so
	// a few taken beside one cold start say little about it; the
	// thousands taken over the passes that follow say how fast the host
	// ran.
	var setup setupTiming
	var runWall, runCPU []float64
	for _, p := range passes {
		runWall, runCPU = append(runWall, p.calWall...), append(runCPU, p.calCPU...)
	}
	for i := range coldWall {
		setup.add(coldWall[i], coldCPU[i], runWall, runCPU)
	}
	m := map[string]metric{}
	setup.report(m, rec, wallClock)
	m["peak_rss_mb"] = metric{rssMB, "MB"}
	return m, passMetrics(m, rec, passes, wallClock)
}

// beats reports whether measurement a should count for its slot instead
// of b: one whose window saw no steal beats one that did, then the faster
// wins.
func (a timedJob) beats(b timedJob) bool {
	if a.stolen != b.stolen {
		return !a.stolen
	}
	return a.r.latency < b.r.latency
}

// timedJob is one service job as the client measured it.
type timedJob struct {
	r               jobReply
	cpu             time.Duration // CPU time of the server and its workers
	calWall, calCPU time.Duration // the calibration sample after the job
	stolen          bool          // the host's steal counter moved meanwhile
}

// timeJob posts one job, then runs a calibration sample while nothing is
// in flight. It notes whether the host-wide steal counter moved between
// the POST and the end of the sample. The kernel counts steal in 10 ms
// ticks, when the stolen vCPU next runs; the sample's millisecond gives
// steal in the job's last moments time to be counted.
func timeJob(srv *serverProc, pids []int, cal *calibrator, body []byte) (timedJob, error) {
	s0 := stealTicks()
	p0 := procCPU(pids)
	r, err := srv.post(body)
	p1 := procCPU(pids)
	cw, cc := cal.sample()
	return timedJob{r: r, cpu: p1 - p0, calWall: cw, calCPU: cc, stolen: stealTicks() != s0}, err
}

// verifySample re-runs a seeded sample of the delivered rows in process,
// outside the timed window, and checks each equals what the service
// streamed. The runs also give the per-layer allocation figures of the
// service workload.
func verifySample(o runOpts, ck *checker, ld *layerData, stream *jobStream, first map[int][]rowMsg) []benchPoint {
	var sample []benchPoint
	rnd := splitmix(o.seed ^ 0xa11ce)
	for i := 0; i < serviceSample && len(stream.fresh) > 0; i++ {
		rnd = splitmix(rnd)
		ji := stream.fresh[int(rnd%uint64(len(stream.fresh)))]
		rows, ok := first[ji]
		if !ok {
			continue // the job failed, which is already counted
		}
		k := int((rnd >> 32) % uint64(len(rows)))
		spec := stream.jobs[ji].points[k]
		sample = append(sample, benchPoint{spec: spec})
		ck.attempt(1)
		a0 := readAlloc()
		c0 := threadCPU()
		row, err := spec.Run()
		ld.runNS += float64((threadCPU() - c0).Nanoseconds())
		ld.alloc.add(readAlloc().sub(a0))
		ld.allocRuns++
		switch {
		case err != nil:
			ck.fail("in-process %s: %v", spec.ID(), err)
		case row != rows[k].Row:
			ck.fail("%s: service row differs from the in-process run\n service    %s\n in-process %s", spec.ID(), rows[k].Row, row)
		default:
			if err := ld.runRows.addRow(row); err != nil {
				ck.fail("%v", err)
			}
		}
	}
	return sample
}

// checkJob checks one delivered job: the rows name the expected points in
// order, a fresh job simulated every point, and a repeated job is
// byte-identical to the first run of the job it repeats, served from the
// cache.
func checkJob(j streamJob, r jobReply, first map[int][]rowMsg) error {
	if len(r.rows) != len(j.points) {
		return fmt.Errorf("%d rows for %d points", len(r.rows), len(j.points))
	}
	for i, m := range r.rows {
		if m.ID != j.points[i].ID() {
			return fmt.Errorf("row %d is %s, want %s", i, m.ID, j.points[i].ID())
		}
	}
	if j.repeats < 0 {
		if r.cached != 0 {
			return fmt.Errorf("fresh job served %d cached rows", r.cached)
		}
		return nil
	}
	want, ok := first[j.repeats]
	if !ok {
		return fmt.Errorf("repeats job %d, whose first run failed", j.repeats)
	}
	for i, m := range r.rows {
		if m.Row != want[i].Row {
			return fmt.Errorf("%s: repeated row differs from its first run\n first  %s\n repeat %s", m.ID, want[i].Row, m.Row)
		}
	}
	if r.cached != len(r.rows) {
		return fmt.Errorf("repeated job recomputed %d of %d rows", len(r.rows)-r.cached, len(r.rows))
	}
	return nil
}

// roundtrip measures the worker-pool round trip: the same fresh
// single-point jobs on a proc server and on an inproc server, alternating;
// the difference of the two medians is what subprocess isolation adds.
func roundtrip(o runOpts, tr *tracer, logPath string) (float64, error) {
	const n = 30
	proc, err := startServer(o.bin, "proc", logPath)
	if err != nil {
		return 0, err
	}
	defer proc.stop()
	inproc, err := startServer(o.bin, "inproc", logPath)
	if err != nil {
		return 0, err
	}
	defer inproc.stop()
	if _, err := proc.post(warmupJob); err != nil {
		return 0, err
	}
	if _, err := inproc.post(warmupJob); err != nil {
		return 0, err
	}
	var dp, di []float64
	for i := 0; i < n; i++ {
		job := []byte(fmt.Sprintf(`{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"seeds":[%d]}`, 5000+i))
		for _, s := range []*serverProc{proc, inproc} {
			r, err := s.post(job)
			if err != nil {
				return 0, err
			}
			name := "roundtrip.proc"
			d := &dp
			if s == inproc {
				name, d = "roundtrip.inproc", &di
			}
			tr.add(name, fmt.Sprint(5000+i), 0, r.start, r.start.Add(r.latency))
			*d = append(*d, float64(r.latency.Nanoseconds())/1e3)
		}
	}
	return median(dp) - median(di), nil
}
