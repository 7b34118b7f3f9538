package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/fault"
	"wisync/internal/kernels"
	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// chaosPlan builds a seeded random fault plan for a cores-node machine:
// one mid-run fail-stop, one or two transient outages, and a token-loss
// event (consulted only by the token MAC, harmless elsewhere). The rand
// source is the test's, not the simulation's — each generated plan is
// itself deterministic data.
func chaosPlan(rng *rand.Rand, cores int) *fault.Plan {
	p := &fault.Plan{
		Outages: []fault.Outage{
			{Node: rng.Intn(cores), At: uint64(3000 + rng.Intn(9000))},
		},
		TokenLoss: []uint64{uint64(3000 + rng.Intn(6000))},
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		p.Outages = append(p.Outages, fault.Outage{
			Node: rng.Intn(cores),
			At:   uint64(500 + rng.Intn(8000)),
			For:  uint64(200 + rng.Intn(1500)),
		})
	}
	p.Normalize()
	return p
}

// TestChaosRandomizedFaultPlans is the chaos sweep: seeded random fault
// plans across the lock-free kernels and every MAC protocol. Each point
// must terminate (the watchdog converts a livelock into an error, and any
// error fails the test), and its row must be byte-identical on a rerun
// and across sweep worker counts.
func TestChaosRandomizedFaultPlans(t *testing.T) {
	t.Parallel()
	for mi, mac := range wireless.MACKinds {
		for wi, workload := range []string{"cas-add", "cas-fifo"} {
			mac, workload := mac, workload
			rng := rand.New(rand.NewSource(int64(1000*mi + wi)))
			plan := chaosPlan(rng, 16)
			t.Run(fmt.Sprintf("%v/%s", mac, workload), func(t *testing.T) {
				t.Parallel()
				spec := PointSpec{
					Workload: workload, Kind: config.WiSync, Cores: 16, Seed: 1,
					MAC: mac, Faults: plan, Watchdog: 200000,
				}
				var rows []string
				for run := 0; run < 2; run++ {
					row, err := spec.Run()
					if err != nil {
						t.Fatalf("run=%d: %v (plan %+v)", run, err, plan)
					}
					rows = append(rows, row)
				}
				for i, out := range RunPoints(Options{Workers: 2}, []PointSpec{spec, spec}) {
					if out.Err != nil {
						t.Fatalf("worker run %d: %v (plan %+v)", i, out.Err, plan)
					}
					rows = append(rows, out.Row)
				}
				for i := 1; i < len(rows); i++ {
					if rows[i] != rows[0] {
						t.Fatalf("row %d diverged under plan %+v:\ngot:  %s\nwant: %s",
							i, plan, rows[i], rows[0])
					}
				}
			})
		}
	}
}

// TestTokenFailStopRecovery pins the token MAC's degradation protocol: a
// mid-run transceiver fail-stop loses the token when the ring path crosses
// the dead node, the bounded timeout regenerates it (counted in MACStats),
// the dead node's thread retires into a fault record, and the surviving
// cores finish the kernel — with every counter identical on a rerun and
// every row identical across concurrent reruns.
func TestTokenFailStopRecovery(t *testing.T) {
	t.Parallel()
	plan := &fault.Plan{Outages: []fault.Outage{{Node: 3, At: 8000}}}
	cfg := config.New(config.WiSync, 16).WithMAC(wireless.MACToken).
		WithFaults(plan).WithWatchdog(200000)
	ref := kernels.CASKernel(cfg, kernels.ADD, 50, 30000)
	if ref.MAC.TokenRegens == 0 {
		t.Fatalf("no token regeneration after fail-stop: MAC=%+v", ref.MAC)
	}
	if len(ref.Faults) == 0 {
		t.Fatalf("no fault records for the dead node: %+v", ref)
	}
	for _, f := range ref.Faults {
		if f.Core != 3 || f.Cycle < 8000 {
			t.Fatalf("fault record outside the plan: %+v", f)
		}
	}
	if ref.Successes == 0 {
		t.Fatalf("surviving cores made no progress: %+v", ref)
	}

	// A rerun reproduces every counter of a faulty run.
	r := kernels.CASKernel(cfg, kernels.ADD, 50, 30000)
	if r.Successes != ref.Successes || r.Failures != ref.Failures ||
		!reflect.DeepEqual(r.Net, ref.Net) || !reflect.DeepEqual(r.MAC, ref.MAC) ||
		!reflect.DeepEqual(r.Energy, ref.Energy) || !reflect.DeepEqual(r.Faults, ref.Faults) {
		t.Fatalf("rerun diverged:\ngot:  %+v\nwant: %+v", r, ref)
	}

	// Concurrent reruns (the -workers axis) are byte-identical rows.
	spec := PointSpec{
		Workload: "cas-add", Kind: config.WiSync, Cores: 16, Seed: 1, CS: 50,
		Duration: 30000, MAC: wireless.MACToken, Faults: plan, Watchdog: 200000,
	}
	want, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	rows := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], errs[i] = spec.Run()
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if rows[i] != want {
			t.Fatalf("worker %d row diverged:\ngot:  %s\nwant: %s", i, rows[i], want)
		}
	}
}

// TestChaosCounterConservation pins the fault-path accounting under an
// ideal channel: corruption counters stay zero, fault-injected send
// failures are counted, and every granted transmission is a committed
// message (grants that the injector aborts are not counted as grants).
func TestChaosCounterConservation(t *testing.T) {
	t.Parallel()
	plan := &fault.Plan{Outages: []fault.Outage{
		{Node: 2, At: 5000},             // fail-stop
		{Node: 7, At: 1000, For: 25000}, // outage spanning most of the run
	}}
	cfg := config.New(config.WiSync, 16).WithFaults(plan).WithWatchdog(200000)
	r := kernels.CASKernel(cfg, kernels.ADD, 50, 30000)
	if r.Energy.Retransmissions != 0 || r.Energy.DeliveryFailures != 0 {
		t.Fatalf("ideal channel reported corruption: %+v", r.Energy)
	}
	if r.Energy.FaultedSends == 0 {
		t.Fatalf("no faulted sends despite outages: %+v", r.Energy)
	}
	if r.Energy.RetxPJ != 0 {
		t.Fatalf("retransmission energy on an ideal channel: %+v", r.Energy)
	}
	if r.MAC.Grants != r.Net.Messages {
		t.Fatalf("grant/message conservation broken: grants=%d messages=%d",
			r.MAC.Grants, r.Net.Messages)
	}
	if r.Successes == 0 {
		t.Fatalf("no progress under the plan: %+v", r)
	}

	// The same plan under a no-fault control: the fault counters exist
	// only when injected.
	clean := kernels.CASKernel(config.New(config.WiSync, 16), kernels.ADD, 50, 30000)
	if clean.Energy.FaultedSends != 0 || clean.MAC.TokenRegens != 0 || len(clean.Faults) != 0 {
		t.Fatalf("fault counters nonzero without a plan: %+v", clean)
	}
}

// TestFailStopBarrierDeadlock pins the degraded-diagnostics satellite: a
// fail-stop under a barrier workload (task mode) parks the survivors
// forever, and the resulting structured deadlock error reports the
// simulated cycle and each parked core's last-operation breadcrumb with
// its address.
func TestFailStopBarrierDeadlock(t *testing.T) {
	t.Parallel()
	spec := PointSpec{
		Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1,
		Iters: 500, Faults: &fault.Plan{Outages: []fault.Outage{{Node: 5, At: 6000}}},
	}
	_, err := spec.Run()
	if err == nil {
		t.Fatal("barrier workload completed despite a fail-stopped participant")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock at cycle") {
		t.Fatalf("deadlock error lacks the simulated time: %v", err)
	}
	if !strings.Contains(msg, "addr=0x") {
		t.Fatalf("deadlock error lacks last-operation breadcrumbs: %v", err)
	}
}

// TestBudgetAndAbortRows pins the structured guard errors through the
// harness: a cycle budget below the point's natural length fails with
// core.BudgetError (classifiable via errors.As through the row error
// chain), and a pre-cancelled context fails with core.ErrAborted.
func TestBudgetAndAbortRows(t *testing.T) {
	t.Parallel()
	spec := PointSpec{
		Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1,
		Iters: 500, Budget: 10000,
	}
	_, err := spec.Run()
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget trip did not surface a BudgetError: %v", err)
	}
	if be.Budget != 10000 || be.Now > 10000 || len(be.Parked) == 0 {
		t.Fatalf("malformed BudgetError: %+v", be)
	}

	spec.Budget = 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = spec.RunCtx(ctx)
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("cancelled context did not abort: %v", err)
	}

	// A budget the run fits inside changes nothing: the guarded chunked
	// loop is bit-identical to the unguarded run.
	free := PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1, Iters: 50}
	want, err := free.Run()
	if err != nil {
		t.Fatal(err)
	}
	free.Budget = uint64(sim.Time(50_000_000))
	got, err := free.Run()
	if err != nil {
		t.Fatalf("in-budget run failed: %v", err)
	}
	if got != want {
		t.Fatalf("guarded run diverged from unguarded:\ngot:  %s\nwant: %s", got, want)
	}
}
