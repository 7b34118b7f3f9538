// Command wisync-bench regenerates the tables and figures of the paper's
// evaluation (Section 7), plus the MAC-protocol comparison sweep.
//
// Usage:
//
//	wisync-bench [-quick] [-mac backoff|token|adaptive] [-cpuprofile f] [-memprofile f] [table4|fig7|fig8|fig9|fig10|table5|fig11|macs|all]
//
// Each subcommand prints the same rows or series the paper reports. Shapes
// (who wins, by roughly what factor, where crossovers fall) reproduce the
// paper; absolute cycle counts come from this repository's simulator, not
// the authors' Multi2Sim testbed. -quick shrinks the sweeps; -workers sets
// how many sweep points simulate concurrently (every sweep point is an
// independent seeded simulation, so the output is identical at any worker
// count); -mac swaps the wireless channel's arbitration protocol for every
// figure ("macs" compares all three side by side); -list enumerates the
// available subcommands and MAC protocols.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wisync/internal/channel"
	"wisync/internal/core"
	"wisync/internal/fault"
	"wisync/internal/harness"
	"wisync/internal/profiling"
	"wisync/internal/wireless"
)

var commands = []struct {
	name string
	run  func(harness.Options)
}{
	{"table4", func(o harness.Options) { harness.Table4(o) }},
	{"fig7", func(o harness.Options) { harness.Fig7(o) }},
	{"fig8", func(o harness.Options) { harness.Fig8(o) }},
	{"fig9", func(o harness.Options) { harness.Fig9(o) }},
	{"fig10", func(o harness.Options) { harness.Fig10(o) }},
	{"table5", func(o harness.Options) { harness.Table5(o, nil) }},
	{"fig11", func(o harness.Options) { harness.Fig11(o) }},
	{"macs", func(o harness.Options) { harness.MACSweep(o) }},
	{"all", harness.All},
}

func commandNames() []string {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	return names
}

func macNames() []string {
	names := make([]string, len(wireless.MACKinds))
	for i, k := range wireless.MACKinds {
		names[i] = k.String()
	}
	return names
}

func channelNames() []string {
	names := make([]string, len(channel.Profiles))
	for i, p := range channel.Profiles {
		names[i] = p.String()
	}
	return names
}

func main() {
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	workers := flag.Int("workers", 0, "concurrent sweep points (0 = GOMAXPROCS, 1 = sequential); results are identical at any value")
	macName := flag.String("mac", "backoff", "wireless MAC protocol: "+strings.Join(macNames(), "|"))
	chName := flag.String("channel", "ideal", "wireless channel-error profile: "+strings.Join(channelNames(), "|"))
	ber := flag.Float64("ber", 0, "raw bit-error rate of the worst link for lossy -channel profiles (0 = profile default)")
	retries := flag.Int("retries", 0, "retransmission budget per message for lossy -channel profiles (0 = default)")
	faultsFlag := flag.String("faults", "", "deterministic fault-injection plan: inline JSON or @file, applied to every wireless point (see internal/fault)")
	pointBudget := flag.Uint64("point-budget", 0, "cycle budget per sweep point (0 = unlimited)")
	execName := flag.String("exec", "task", "application workload execution mode: task|thread (identical simulated results)")
	verbose := flag.Bool("v", false, "append scheduler-internals diagnostics (# sched lines: wheel hits, heap fallbacks, step-pool reuse)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	list := flag.Bool("list", false, "list available subcommands and MAC protocols, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wisync-bench [-quick] [-workers n] [-mac p] [-exec m] [-v] [-list] [%s]\n",
			strings.Join(commandNames(), "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		fmt.Printf("subcommands: %s\n", strings.Join(commandNames(), " "))
		fmt.Printf("macs: %s\n", strings.Join(macNames(), " "))
		fmt.Printf("channels: %s\n", strings.Join(channelNames(), " "))
		return
	}
	mac, ok := wireless.ParseMACKind(*macName)
	if !ok {
		fmt.Fprintf(os.Stderr, "wisync-bench: unknown MAC %q (one of: %s)\n", *macName, strings.Join(macNames(), ", "))
		os.Exit(2)
	}
	chProfile, ok := channel.ParseProfile(*chName)
	if !ok {
		fmt.Fprintf(os.Stderr, "wisync-bench: unknown channel profile %q (one of: %s)\n", *chName, strings.Join(channelNames(), ", "))
		os.Exit(2)
	}
	chParams := channel.Params{Profile: chProfile, BER: *ber, MaxRetries: *retries}
	if err := chParams.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "wisync-bench: %v\n", err)
		os.Exit(2)
	}
	plan, err := fault.ParseFlag(*faultsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wisync-bench: %v\n", err)
		os.Exit(2)
	}
	exec, ok := core.ParseExec(*execName)
	if !ok {
		fmt.Fprintf(os.Stderr, "wisync-bench: unknown exec mode %q (task or thread)\n", *execName)
		os.Exit(2)
	}
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	o := harness.Options{Quick: *quick, Workers: *workers, MAC: mac, Channel: chParams,
		Exec: exec, Faults: plan, Budget: *pointBudget,
		Verbose: *verbose, Out: os.Stdout}
	for _, c := range commands {
		if c.name != what {
			continue
		}
		// Self-describing sweep output: lead with the effective
		// configuration. The macs subcommand compares every protocol and
		// ignores -mac, so its header must not claim one.
		macDesc := mac.String()
		if what == "macs" {
			macDesc = "all-compared"
		}
		fmt.Printf("# wisync-bench cmd=%s quick=%v workers=%d mac=%s channel=%v ber=%g retries=%d faults=%q point-budget=%d exec=%v seed=1\n",
			what, *quick, *workers, macDesc, chProfile, *ber, *retries, *faultsFlag, *pointBudget, exec)
		stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wisync-bench: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		c.run(o)
		stopProfiles()
		fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	flag.Usage()
	os.Exit(2)
}
