// Command wisync-sim runs one workload on one machine configuration and
// prints timing and hardware statistics.
//
// Usage:
//
//	wisync-sim -config WiSync -cores 64 -workload tightloop -iters 20
//	wisync-sim -config Baseline -workload liv6 -n 512
//	wisync-sim -config WiSync -workload add -cs 256 -duration 100000
//	wisync-sim -config WiSyncNoT -workload app:streamcluster
//	wisync-sim -config WiSync -cores 16,64,256 -workers 0 -workload tightloop
//
// Workloads: tightloop, liv2, liv3, liv6, fifo, lifo, add, app:<name>.
// Configs: Baseline, Baseline+, WiSyncNoT, WiSync. Variants: Default,
// SlowNet, SlowNet+L2, FastNet, SlowBMEM. MACs: backoff, token, adaptive
// (-mac swaps the wireless channel's arbitration protocol). -list
// enumerates everything runnable and exits.
//
// The first output line is a "# wisync-sim ..." header echoing the
// effective configuration, so saved sweep outputs are self-describing.
//
// -cores accepts a comma-separated list; the points of such a sweep are
// independent seeded simulations, so they are dispatched across -workers
// concurrent workers (0 = GOMAXPROCS) and printed in list order — the
// output is identical at any worker count.
//
// -cpuprofile and -memprofile write standard pprof profiles of the
// simulation (see README "Profiling").
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"wisync/internal/apps"
	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/fault"
	"wisync/internal/harness"
	"wisync/internal/kernels"
	"wisync/internal/profiling"
	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// workloadNames are the non-app workloads, in help order.
var workloadNames = []string{"tightloop", "liv2", "liv3", "liv6", "fifo", "lifo", "add"}

func macNames() string {
	var names []string
	for _, k := range wireless.MACKinds {
		names = append(names, k.String())
	}
	return strings.Join(names, "|")
}

func channelNames() string {
	var names []string
	for _, p := range channel.Profiles {
		names = append(names, p.String())
	}
	return strings.Join(names, "|")
}

func main() {
	cfgName := flag.String("config", "WiSync", "machine kind: Baseline, Baseline+, WiSyncNoT, WiSync")
	cores := flag.String("cores", "64", "core count 16-256, or a comma-separated sweep list")
	workload := flag.String("workload", "tightloop", "tightloop|liv2|liv3|liv6|fifo|lifo|add|app:<name>")
	n := flag.Int("n", 1024, "vector length for Livermore loops")
	iters := flag.Int("iters", 20, "iterations for tightloop")
	cs := flag.Int("cs", 256, "instructions between CASes for the CAS kernels")
	duration := flag.Uint64("duration", 200000, "cycles to run the CAS kernels")
	variant := flag.String("variant", "Default", "Table 6 variant")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent sweep points for a -cores list (0 = GOMAXPROCS, 1 = sequential)")
	macName := flag.String("mac", "backoff", "wireless MAC protocol: "+macNames())
	chName := flag.String("channel", "ideal", "wireless channel-error profile: "+channelNames())
	ber := flag.Float64("ber", 0, "raw bit-error rate of the worst link for lossy -channel profiles (0 = profile default)")
	retries := flag.Int("retries", 0, "retransmission budget per message for lossy -channel profiles (0 = default)")
	faultsFlag := flag.String("faults", "", "deterministic fault-injection plan: inline JSON or @file (see internal/fault)")
	pointBudget := flag.Uint64("point-budget", 0, "cycle budget per point (0 = unlimited); a run still live at the budget fails with a structured error")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	list := flag.Bool("list", false, "list available workloads, configs, variants and MACs, then exit")
	flag.Parse()

	if *list {
		printList()
		return
	}
	kind, ok := config.ParseKind(*cfgName)
	if !ok {
		fatalf("unknown config %q", *cfgName)
	}
	v, ok := config.ParseVariant(*variant)
	if !ok {
		fatalf("unknown variant %q", *variant)
	}
	mac, ok := wireless.ParseMACKind(*macName)
	if !ok {
		fatalf("unknown MAC %q (one of: %s)", *macName, macNames())
	}
	chProfile, ok := channel.ParseProfile(*chName)
	if !ok {
		fatalf("unknown channel profile %q (one of: %s)", *chName, channelNames())
	}
	chParams := channel.Params{Profile: chProfile, BER: *ber, MaxRetries: *retries}
	plan, err := fault.ParseFlag(*faultsFlag)
	if err != nil {
		fatalf("%v", err)
	}
	coreList, err := parseCores(*cores)
	if err != nil {
		fatalf("%v", err)
	}
	// Validate the workload once, up front: runOne executes on worker
	// goroutines, where a per-point fatalf would race and could discard
	// already-rendered points.
	var appProfile apps.Profile
	switch {
	case strings.HasPrefix(*workload, "app:"):
		name := strings.TrimPrefix(*workload, "app:")
		p, ok := apps.ByName(name)
		if !ok {
			fatalf("unknown application %q (see internal/apps/profiles.go)", name)
		}
		appProfile = p
	case knownWorkload(*workload):
	default:
		fatalf("unknown workload %q", *workload)
	}
	pointCfg := func(cores int) config.Config {
		return config.New(kind, cores).WithVariant(v).WithSeed(*seed).WithMAC(mac).
			WithChannel(chParams).WithFaults(plan).WithBudget(sim.Time(*pointBudget))
	}
	// Validate every sweep point's machine configuration up front through
	// the single authority (config.Config.Validate): a bad core count is a
	// usage error here, never a panic inside a worker.
	for _, c := range coreList {
		if err := pointCfg(c).Validate(); err != nil {
			fatalf("%v", err)
		}
	}

	// Self-describing output: echo the effective configuration first.
	fmt.Printf("# wisync-sim config=%v cores=%s variant=%v seed=%d workers=%d mac=%v channel=%v ber=%g retries=%d faults=%q point-budget=%d workload=%s\n",
		kind, *cores, v, *seed, *workers, mac, chProfile, *ber, *retries, *faultsFlag, *pointBudget, *workload)
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("%v", err)
	}
	// Each sweep point renders into its own buffer; buffers are printed in
	// list order so the output does not depend on the worker count.
	outputs := make([]strings.Builder, len(coreList))
	var pointFailed atomic.Bool
	harness.ForEach(*workers, len(coreList), func(i int) {
		if !runOne(&outputs[i], pointCfg(coreList[i]), *workload, appProfile, *n, *iters, *cs, *duration) {
			pointFailed.Store(true)
		}
	})
	stopProfiles()
	for i := range outputs {
		fmt.Print(outputs[i].String())
	}
	if pointFailed.Load() {
		os.Exit(1)
	}
}

// printList enumerates everything the -config/-variant/-workload/-mac
// flags accept.
func printList() {
	fmt.Printf("workloads: %s app:<name>\n", strings.Join(workloadNames, " "))
	var names []string
	for _, p := range apps.Profiles() {
		names = append(names, p.Name)
	}
	fmt.Printf("apps: %s\n", strings.Join(names, " "))
	var kinds []string
	for _, k := range config.Kinds {
		kinds = append(kinds, k.String())
	}
	fmt.Printf("configs: %s\n", strings.Join(kinds, " "))
	var variants []string
	for _, v := range config.Variants {
		variants = append(variants, v.String())
	}
	fmt.Printf("variants: %s\n", strings.Join(variants, " "))
	fmt.Printf("macs: %s\n", strings.ReplaceAll(macNames(), "|", " "))
	fmt.Printf("channels: %s\n", strings.ReplaceAll(channelNames(), "|", " "))
}

func runOne(out *strings.Builder, cfg config.Config, workload string, appProfile apps.Profile, n, iters, cs int, duration uint64) (ok bool) {
	// Budget trips and other guarded-run failures panic out of the kernel
	// runners; surface them as a structured per-point error line instead of
	// crashing the whole sweep (the process still exits nonzero).
	ok = true
	defer func() {
		if r := recover(); r != nil {
			ok = false
			fmt.Fprintf(out, "error: %v\n", r)
		}
	}()
	// printEnergy appends the transceiver energy ledger after a lossy-
	// channel run; ideal-channel output is unchanged.
	printEnergy := func(e wireless.EnergyStats) {
		if cfg.Wireless.Channel.Profile != channel.Ideal {
			fmt.Fprintf(out, "# energy %s\n", e)
		}
	}
	switch {
	case workload == "tightloop":
		r := kernels.TightLoop(cfg, iters)
		fmt.Fprintln(out, r)
		fmt.Fprintf(out, "data channel utilization: %.3f%%\n", 100*r.DataChannelUtil)
		printEnergy(r.Energy)
	case workload == "liv2":
		r, _ := kernels.Livermore2(cfg, n, 1)
		fmt.Fprintln(out, r)
		printEnergy(r.Energy)
	case workload == "liv3":
		r, sum := kernels.Livermore3(cfg, n, 1)
		fmt.Fprintln(out, r)
		fmt.Fprintf(out, "inner product: %g\n", sum)
		printEnergy(r.Energy)
	case workload == "liv6":
		r, _ := kernels.Livermore6(cfg, n)
		fmt.Fprintln(out, r)
		printEnergy(r.Energy)
	case workload == "fifo" || workload == "lifo" || workload == "add":
		kn := map[string]kernels.CASKind{"fifo": kernels.FIFO, "lifo": kernels.LIFO, "add": kernels.ADD}[workload]
		r := kernels.CASKernel(cfg, kn, cs, sim.Time(duration))
		fmt.Fprintln(out, r)
		printEnergy(r.Energy)
	case strings.HasPrefix(workload, "app:"):
		r := apps.Run(cfg, appProfile)
		fmt.Fprintln(out, r)
		printEnergy(r.Energy)
	}
	return ok
}

func knownWorkload(s string) bool {
	for _, w := range workloadNames {
		if s == w {
			return true
		}
	}
	return false
}

func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, c)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wisync-sim: "+format+"\n", args...)
	os.Exit(2)
}
