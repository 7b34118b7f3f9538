// Point-level sweep API.
//
// PointSpec is the one vocabulary for a simulation: the figures, the golden
// matrices, the sweep service (cmd/wisync-server) and wisync-bench point
// all run and configure their points through it. A spec is one workload on
// one machine configuration, serializable as JSON, normalized to a
// canonical form, validated before any machine is built, content-addressed
// for memoization, and executed with per-point panic isolation — a
// malformed or crashing point yields an error row, never a dead process,
// and every other point of the batch is bit-identical to a clean run.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"wisync/internal/apps"
	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/fault"
	"wisync/internal/kernels"
	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// PointSpec describes one sweep point. The zero value of every optional
// field means "the canonical default for this workload": Normalize fills
// defaults in and zeroes parameters the workload does not read, so two
// specs that run the same simulation digest identically.
type PointSpec struct {
	// Workload names a kernel — tightloop, livermore2/3/6 (aliases liv2,
	// liv3, liv6), cas-fifo/cas-lifo/cas-add (aliases fifo, lifo, add) —
	// or an application profile as app:<name>.
	Workload string           `json:"workload"`
	Kind     config.Kind      `json:"kind"`
	Cores    int              `json:"cores"`
	Seed     uint64           `json:"seed"`
	Variant  config.Variant   `json:"variant,omitempty"`
	MAC      wireless.MACKind `json:"mac,omitempty"`

	// Channel selects the channel-error profile (default ideal: the
	// paper's error-free medium, under which rows match the golden
	// matrices byte for byte). BER and Retries configure the lossy
	// profiles; both are zeroed under ideal and defaulted otherwise
	// (1e-4, channel.DefaultMaxRetries), so equivalent specs digest
	// identically. BERGood/PGB/PBG configure the burst (Gilbert–Elliott)
	// profile only: BER is the bad-state error rate, BERGood the
	// good-state rate, PGB/PBG the per-message state-transition
	// probabilities (defaulted to channel.DefaultPGB/DefaultPBG).
	Channel channel.Profile `json:"channel,omitempty"`
	BER     float64         `json:"ber,omitempty"`
	Retries int             `json:"retries,omitempty"`
	BERGood float64         `json:"ber_good,omitempty"`
	PGB     float64         `json:"pgb,omitempty"`
	PBG     float64         `json:"pbg,omitempty"`

	// Faults is an optional deterministic fault-injection plan
	// (transceiver outages, token-loss events); nil means fault-free.
	// The plan is covered by the configuration digest.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Budget is an end-to-end cycle ceiling: a point still live at that
	// cycle comes back as a structured budget error row instead of
	// running forever. Watchdog is a progress window in cycles: no
	// workload-visible progress for that long is reported as a livelock.
	// Zero disables either guard.
	Budget   uint64 `json:"budget,omitempty"`
	Watchdog uint64 `json:"watchdog,omitempty"`

	// Workload parameters; zero means the workload's default.
	Iters    int    `json:"iters,omitempty"`    // tightloop iterations; app iteration override
	N        int    `json:"n,omitempty"`        // Livermore vector length
	Passes   int    `json:"passes,omitempty"`   // Livermore 2/3 passes
	CS       int    `json:"cs,omitempty"`       // CAS critical-section instructions
	Duration uint64 `json:"duration,omitempty"` // CAS kernel run length in cycles
}

// casKinds maps canonical CAS workload names to kernel kinds.
var casKinds = map[string]kernels.CASKind{
	"cas-fifo": kernels.FIFO,
	"cas-lifo": kernels.LIFO,
	"cas-add":  kernels.ADD,
}

// workloadAliases maps the cmd-line short names onto the canonical
// workload names (which match the golden matrix's kernel column).
var workloadAliases = map[string]string{
	"liv2": "livermore2",
	"liv3": "livermore3",
	"liv6": "livermore6",
	"fifo": "cas-fifo",
	"lifo": "cas-lifo",
	"add":  "cas-add",
}

// Normalize returns the canonical form of the spec: aliases resolved,
// workload defaults filled in, and parameters the workload does not read
// zeroed (so they cannot split the content address). The defaults are the
// golden matrix's parameters, which is what lets a default job be diffed
// against testdata/golden.tsv.
func (s PointSpec) Normalize() (PointSpec, error) {
	if w, ok := workloadAliases[s.Workload]; ok {
		s.Workload = w
	}
	switch {
	case s.Workload == "tightloop":
		if s.Iters == 0 {
			s.Iters = 8
		}
		s.N, s.Passes, s.CS, s.Duration = 0, 0, 0, 0
	case s.Workload == "livermore2" || s.Workload == "livermore3":
		if s.N == 0 {
			s.N = 96
		}
		if s.Passes == 0 {
			s.Passes = 1
		}
		s.Iters, s.CS, s.Duration = 0, 0, 0
	case s.Workload == "livermore6":
		if s.N == 0 {
			s.N = 40
		}
		s.Iters, s.Passes, s.CS, s.Duration = 0, 0, 0, 0
	case strings.HasPrefix(s.Workload, "cas-"):
		if _, ok := casKinds[s.Workload]; !ok {
			return s, fmt.Errorf("harness: unknown workload %q", s.Workload)
		}
		if s.CS == 0 {
			s.CS = 128
		}
		if s.Duration == 0 {
			s.Duration = 20000
		}
		s.Iters, s.N, s.Passes = 0, 0, 0
	case strings.HasPrefix(s.Workload, "app:"):
		if _, ok := apps.ByName(strings.TrimPrefix(s.Workload, "app:")); !ok {
			return s, fmt.Errorf("harness: unknown application %q", strings.TrimPrefix(s.Workload, "app:"))
		}
		s.N, s.Passes, s.CS, s.Duration = 0, 0, 0, 0
	default:
		return s, fmt.Errorf("harness: unknown workload %q", s.Workload)
	}
	if s.Channel == channel.Ideal {
		s.BER, s.Retries = 0, 0
	} else {
		if s.BER == 0 {
			s.BER = 1e-4
		}
		if s.Retries == 0 {
			s.Retries = channel.DefaultMaxRetries
		}
	}
	if s.Channel == channel.Burst {
		if s.PGB == 0 {
			s.PGB = channel.DefaultPGB
		}
		if s.PBG == 0 {
			s.PBG = channel.DefaultPBG
		}
	} else {
		// Only the burst profile reads the Gilbert–Elliott knobs.
		s.BERGood, s.PGB, s.PBG = 0, 0, 0
	}
	if s.Faults != nil {
		s.Faults.Normalize()
		if s.Faults.Empty() {
			s.Faults = nil
		}
	}
	return s, nil
}

// Parameter caps: a shared service must bound how much simulation one
// point may demand. The largest figure sweeps stay comfortably inside.
const (
	maxIters    = 100000
	maxVecLen   = 1 << 20
	maxPasses   = 100
	maxCSInstr  = 1 << 20
	maxDuration = 100000000
)

// Validate reports everything wrong with the spec: unknown workload or
// application, out-of-range machine configuration (delegated to
// config.Config.Validate, the single authority), unknown variant, and
// workload parameters beyond the service caps. A spec that
// validates cleanly cannot panic machine construction.
func (s PointSpec) Validate() error {
	n, err := s.Normalize()
	if err != nil {
		return err
	}
	if n.Variant < config.Default || n.Variant > config.SlowBMEM {
		return fmt.Errorf("harness: unknown variant %d", int(n.Variant))
	}
	if err := n.Config().Validate(); err != nil {
		return err
	}
	switch {
	case n.Iters < 0 || n.Iters > maxIters:
		return fmt.Errorf("harness: iters %d outside [0,%d]", n.Iters, maxIters)
	case n.N < 0 || n.N > maxVecLen:
		return fmt.Errorf("harness: vector length %d outside [0,%d]", n.N, maxVecLen)
	case n.Passes < 0 || n.Passes > maxPasses:
		return fmt.Errorf("harness: passes %d outside [0,%d]", n.Passes, maxPasses)
	case n.CS < 0 || n.CS > maxCSInstr:
		return fmt.Errorf("harness: cs %d outside [0,%d]", n.CS, maxCSInstr)
	case n.Duration > maxDuration:
		return fmt.Errorf("harness: duration %d beyond cap %d", n.Duration, maxDuration)
	case n.Budget > maxDuration:
		return fmt.Errorf("harness: budget %d beyond cap %d", n.Budget, maxDuration)
	case n.Watchdog > maxDuration:
		return fmt.Errorf("harness: watchdog %d beyond cap %d", n.Watchdog, maxDuration)
	}
	return nil
}

// Config builds the point's machine configuration.
func (s PointSpec) Config() config.Config {
	return config.New(s.Kind, s.Cores).WithVariant(s.Variant).WithSeed(s.Seed).
		WithMAC(s.MAC).
		WithChannel(channel.Params{
			Profile: s.Channel, BER: s.BER, MaxRetries: s.Retries,
			BERGood: s.BERGood, PGB: s.PGB, PBG: s.PBG,
		}).
		WithFaults(s.Faults).
		WithBudget(sim.Time(s.Budget)).WithWatchdog(sim.Time(s.Watchdog))
}

// ID names the point in golden-matrix format: workload/kind/coresc/sseed.
func (s PointSpec) ID() string {
	return fmt.Sprintf("%s/%s/%dc/s%d", s.Workload, s.Kind, s.Cores, s.Seed)
}

// Digest returns the content address of the point: a hex SHA-256 over the
// normalized workload parameters and the machine configuration's digest.
// The seed is excluded — the memoization cache keys entries by
// (Digest, Seed). Two specs share a digest exactly when they run the same
// simulation.
func (s PointSpec) Digest() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	cfgDigest, err := n.Config().Digest()
	if err != nil {
		return "", err
	}
	key := struct {
		Workload string `json:"workload"`
		Iters    int    `json:"iters"`
		N        int    `json:"n"`
		Passes   int    `json:"passes"`
		CS       int    `json:"cs"`
		Duration uint64 `json:"duration"`
		Config   string `json:"config"`
	}{n.Workload, n.Iters, n.N, n.Passes, n.CS, n.Duration, cfgDigest}
	b, err := json.Marshal(key)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// pointRunHook, when non-nil, runs inside Simulate's recovery scope just
// before the simulation; the panic-isolation regression test injects a
// panicking point through it.
var pointRunHook func(PointSpec)

// Result is one point's typed outcome: the normalized spec that ran and
// the run itself, held by workload family. Kernel holds a tightloop or
// Livermore run, with Check its row's functional column (cycles per
// iteration for tightloop, the result vector's sum or the inner product for
// the Livermore loops) named CheckName; CAS holds a lock-free kernel run and
// App an application run. The other two are nil.
type Result struct {
	Spec      PointSpec
	Kernel    *kernels.Result
	Check     float64
	CheckName string
	CAS       *kernels.CASResult
	App       *apps.Result
}

// Simulate validates the spec and runs the point, returning its typed
// result. It holds the repository's one dispatch from workload names to the
// kernels and applications. Every failure mode — validation, machine
// construction, a panic anywhere inside the simulation — comes back as an
// error; Simulate never panics, so one bad point in a batch cannot take
// down the worker pool or the serving process. When ctx is cancellable,
// the machine's abort hook polls it between event chunks, so a job deadline
// or a client disconnect converts an in-flight point into a core.ErrAborted
// error within one guard interval. Cancellation does not change results: a
// point that completes is bit-identical to an uncancellable run.
func (s PointSpec) Simulate(ctx context.Context) (res Result, err error) {
	n, err := s.Normalize()
	if err != nil {
		return res, err
	}
	if err := n.Validate(); err != nil {
		return res, err
	}
	defer func() {
		if r := recover(); r != nil {
			// Keep the error chain when the panic value is an error
			// (kernels and apps panic the guarded run's structured
			// errors), so callers can classify budget / livelock / abort
			// rows with errors.Is and errors.As.
			if e, ok := r.(error); ok {
				err = fmt.Errorf("harness: point %s panicked: %w", n.ID(), e)
			} else {
				err = fmt.Errorf("harness: point %s panicked: %v", n.ID(), r)
			}
		}
	}()
	if pointRunHook != nil {
		pointRunHook(n)
	}
	cfg := n.Config()
	if ctx != nil && ctx.Done() != nil {
		cfg.Abort = &config.AbortCheck{F: func() bool { return ctx.Err() != nil }}
	}
	res.Spec = n
	switch {
	case n.Workload == "tightloop":
		r := kernels.TightLoop(cfg, n.Iters)
		res.Kernel, res.Check, res.CheckName = &r, r.CyclesPerIteration(), "cyc/iter"
	case n.Workload == "livermore2":
		r, x := kernels.Livermore2(cfg, n.N, n.Passes)
		res.Kernel, res.Check, res.CheckName = &r, vecSum(x), "xsum"
	case n.Workload == "livermore3":
		r, dot := kernels.Livermore3(cfg, n.N, n.Passes)
		res.Kernel, res.Check, res.CheckName = &r, dot, "dot"
	case n.Workload == "livermore6":
		r, w := kernels.Livermore6(cfg, n.N)
		res.Kernel, res.Check, res.CheckName = &r, vecSum(w), "wsum"
	case strings.HasPrefix(n.Workload, "cas-"):
		r := kernels.CASKernel(cfg, casKinds[n.Workload], n.CS, sim.Time(n.Duration))
		res.CAS = &r
	case strings.HasPrefix(n.Workload, "app:"):
		p, _ := apps.ByName(strings.TrimPrefix(n.Workload, "app:"))
		if n.Iters > 0 {
			p.Iterations = n.Iters
		}
		r := apps.Run(cfg, p)
		res.App = &r
	default:
		return res, fmt.Errorf("harness: unknown workload %q", n.Workload)
	}
	return res, nil
}

// Row renders the result as a metrics row: the golden-matrix line format
// for kernels, and the same key=value columns for CAS kernels and
// applications.
func (r Result) Row() string {
	id := r.Spec.ID()
	var row string
	switch {
	case r.Kernel != nil:
		row = goldenLine(id, *r.Kernel, r.CheckName+"="+gf(r.Check))
	case r.CAS != nil:
		row = id + "\t" + strings.Join([]string{
			fmt.Sprintf("ok=%d", r.CAS.Successes),
			fmt.Sprintf("failed=%d", r.CAS.Failures),
			fmt.Sprintf("per1000=%s", gf(r.CAS.Per1000)),
			fmt.Sprintf("mem=%+v", r.CAS.Mem),
			fmt.Sprintf("net=%+v", r.CAS.Net),
		}, "\t")
	case r.App != nil:
		row = id + "\t" + strings.Join([]string{
			fmt.Sprintf("cycles=%d", r.App.Cycles),
			fmt.Sprintf("datautil=%s", gf(r.App.DataUtilPct())),
			fmt.Sprintf("spills=%d", r.App.Spills),
			fmt.Sprintf("mem=%+v", r.App.Mem),
			fmt.Sprintf("net=%+v", r.App.Net),
		}, "\t")
	}
	// Lossy channels append the energy/reliability columns; the ideal
	// default appends nothing, keeping every row byte-identical to the
	// golden matrices.
	if r.Spec.Channel != channel.Ideal {
		row += "\t" + energyCols(r.outcome().Energy)
	}
	// Fault plans append the degradation record: how many threads were
	// retired by a fail-stopped transceiver and where each halted.
	// Fault-free points append nothing, for the same golden reason.
	if r.Spec.Faults != nil {
		row += "\t" + faultCols(r.outcome().Faults)
	}
	return row
}

// outcome returns the machine outcome of the run the result holds.
func (r Result) outcome() core.Outcome {
	switch {
	case r.Kernel != nil:
		return r.Kernel.Outcome
	case r.CAS != nil:
		return r.CAS.Outcome
	case r.App != nil:
		return r.App.Outcome
	}
	return core.Outcome{}
}

// Run executes the point and renders its metrics row (see Simulate and
// Result.Row). Run never panics.
func (s PointSpec) Run() (row string, err error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run with cancellation (see Simulate).
func (s PointSpec) RunCtx(ctx context.Context) (row string, err error) {
	r, err := s.Simulate(ctx)
	if err != nil {
		return "", err
	}
	return r.Row(), nil
}

// faultCols renders the fault-plan row suffix: the per-core records of
// threads retired by a fail-stopped transceiver (deterministic order —
// guards fire at fixed positions in the global event order).
func faultCols(faults []core.Fault) string {
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = f.String()
	}
	return fmt.Sprintf("faults=%d [%s]", len(faults), strings.Join(parts, "; "))
}

// energyCols renders the lossy-channel row suffix: total transceiver
// energy, retransmissions, and exhausted-budget delivery failures.
func energyCols(e wireless.EnergyStats) string {
	return strings.Join([]string{
		fmt.Sprintf("energy=%spJ", gf(e.TotalPJ())),
		fmt.Sprintf("retx=%d", e.Retransmissions),
		fmt.Sprintf("drops=%d", e.DeliveryFailures),
	}, "\t")
}

// PointOutcome is one point's result in a batch run.
type PointOutcome struct {
	Spec PointSpec
	Row  string
	Err  error
}

// RunPoints executes specs across the option's worker pool. Each point is
// isolated: a panicking or invalid point surfaces as its outcome's Err
// while every other outcome is bit-identical to a clean batch (pinned by
// TestRunPointsPanicIsolation). Outcomes are in spec order regardless of
// worker count.
func RunPoints(o Options, specs []PointSpec) []PointOutcome {
	out := make([]PointOutcome, len(specs))
	o.forEach(len(specs), func(i int) {
		out[i].Spec = specs[i]
		out[i].Row, out[i].Err = specs[i].Run()
	})
	return out
}
