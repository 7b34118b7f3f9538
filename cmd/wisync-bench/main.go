// Command wisync-bench regenerates the tables and figures of the paper's
// evaluation (Section 7) and the MAC-protocol comparison, and runs single
// points.
//
//	wisync-bench [-quick] [-workers n] [-v] [point flags] [table4|fig7|fig8|fig9|fig10|table5|fig11|macs|all]
//	wisync-bench [-workers n] [point flags] point
//
// Shapes (who wins, by roughly what factor, where crossovers fall)
// reproduce the paper; absolute cycle counts come from this repository's
// simulator, not the authors' Multi2Sim testbed. -quick shrinks the sweeps,
// and the output is identical at any -workers value.
//
// The point flags are harness.PointSpec's fields under their JSON names
// (-workload, -kind, -cores, -seed, -mac, -channel, -faults, -budget, ...).
// For a figure they set the template every figure point starts from
// ("-mac token fig7"); a flag for a field the figure sets itself is a
// usage error. point reads them as the sweep service reads a job: -kind,
// -cores and -seed take comma lists, and it prints one row per point, the
// rows the service streams. -list enumerates the subcommands and names.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wisync/internal/apps"
	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/fault"
	"wisync/internal/harness"
	"wisync/internal/profiling"
	"wisync/internal/wireless"
)

// workloads lists the kernel workloads PointSpec accepts, in help order.
const workloads = "tightloop livermore2 livermore3 livermore6 cas-fifo cas-lifo cas-add"

// pointFlags are harness.PointSpec's fields as flags, named by their JSON
// keys. A flag's text enters the JSON object of a sweep-service job as
// given — a number, or a fault plan inline or from @file — or as a JSON
// string where str is set, and decodes like a job's body, so the CLI and
// the service read one schema.
var pointFlags = []struct {
	name  string
	str   bool
	usage string
}{
	{"workload", true, "`workload`: " + workloads + " (aliases liv2 liv3 liv6 fifo lifo add), or app:<name>"},
	{"kind", true, "machine `kind`: " + names(config.Kinds) + "; point takes a comma list (default WiSync)"},
	{"cores", false, "core `count`, 1-256; point takes a comma list (default 64)"},
	{"seed", false, "simulation `seed` (default 1); point takes a comma list"},
	{"variant", true, "Table 6 `variant`: " + names(config.Variants)},
	{"mac", true, "wireless `MAC` protocol: " + names(wireless.MACKinds)},
	{"channel", true, "wireless channel-error `profile`: " + names(channel.Profiles) + " (default ideal)"},
	{"ber", false, "bit-error `rate` of the worst link under a lossy -channel (0 = 1e-4)"},
	{"retries", false, "retransmission `budget` per message under a lossy -channel (0 = default)"},
	{"ber_good", false, "good-state bit-error `rate` of -channel burst"},
	{"pgb", false, "good-to-bad state `probability` per message of -channel burst (0 = default)"},
	{"pbg", false, "bad-to-good state `probability` per message of -channel burst (0 = default)"},
	{"faults", false, "fault-injection `plan`, inline JSON or @file; applies to wireless points (see internal/fault)"},
	{"budget", false, "budget per point in `cycles`: a point still live at it fails (0 = unlimited)"},
	{"watchdog", false, "`cycles` without progress before a point fails as a livelock (0 = off)"},
	{"iters", false, "tightloop `iterations`, or an application's iteration count (0 = 8, or the profile's)"},
	{"n", false, "Livermore vector `length` (0 = 96, or 40 for livermore6)"},
	{"passes", false, "Livermore 2/3 `passes` (0 = 1)"},
	{"cs", false, "CAS kernels: `instructions` between CASes (0 = 128)"},
	{"duration", false, "CAS kernels: run length in `cycles` (0 = 20000)"},
}

// axes maps the point flags that "point" reads as comma lists to the job
// keys of those lists.
var axes = map[string]string{"kind": "kinds", "cores": "cores", "seed": "seeds"}

// names joins the values' names with "|", for flag help.
func names[T fmt.Stringer](xs []T) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = x.String()
	}
	return strings.Join(s, "|")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status, 2 for a usage
// error and 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wisync-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink the figure sweeps for a fast pass")
	workers := fs.Int("workers", 0, "concurrent points (0 = GOMAXPROCS, 1 = sequential); results are identical at any value")
	verbose := fs.Bool("v", false, "append scheduler-internals diagnostics to the application figures (# sched lines)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to this `file` at exit")
	list := fs.Bool("list", false, "list the subcommands, workloads, applications and machine options, then exit")
	for _, f := range pointFlags {
		fs.String(f.name, "", f.usage)
	}
	var cmds []string
	for _, f := range harness.Figures {
		cmds = append(cmds, f.Name)
	}
	cmds = append(cmds, "point")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: wisync-bench [flags] [%s]\n", strings.Join(cmds, "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout, cmds)
		return 0
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "wisync-bench: "+format+"\n", a...)
		return 2
	}
	what := "all"
	switch fs.NArg() {
	case 0:
	case 1:
		what = fs.Arg(0)
	default:
		return usage("one subcommand, then nothing: flags go before it (got %q)", fs.Args())
	}
	// A subcommand refuses the flags for fields it sets itself; point
	// refuses the figure-only flags.
	refused := []string{"quick", "v"}
	var fig *harness.Figure
	for i := range harness.Figures {
		if harness.Figures[i].Name == what {
			fig, refused = &harness.Figures[i], harness.Figures[i].Sets
		}
	}
	if fig == nil && what != "point" {
		fs.Usage()
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range refused {
		if set[name] {
			return usage("%s takes no -%s", what, name)
		}
	}
	body, err := pointJSON(fs, what == "point")
	if err != nil {
		return usage("%v", err)
	}
	o := harness.Options{Quick: *quick, Workers: *workers, Verbose: *verbose, Out: stdout}
	var specs []harness.PointSpec
	if what == "point" {
		var b harness.Batch
		if err := decodeStrict(body, &b); err != nil {
			return usage("%v", err)
		}
		if specs, err = b.Expand(harness.MaxBatchPoints); err != nil {
			return usage("%v", err)
		}
		job, _ := json.Marshal(b.WithDefaults())
		fmt.Fprintf(stdout, "# wisync-bench cmd=point workers=%d job=%s\n", *workers, job)
	} else {
		if err := decodeStrict(body, &o.Point); err != nil {
			return usage("%v", err)
		}
		if fig.Points != nil {
			for _, p := range fig.Points(o) {
				if err := p.Validate(); err != nil {
					return usage("point %s: %v", p.ID(), err)
				}
			}
		}
		fmt.Fprintf(stdout, "# wisync-bench cmd=%s quick=%v workers=%d point=%s\n", what, *quick, *workers, body)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "wisync-bench: %v\n", err)
		return 1
	}
	defer stopProfiles()
	start := time.Now()
	status := 0
	if what == "point" {
		for _, out := range harness.RunPoints(o, specs) {
			if out.Err != nil {
				fmt.Fprintf(stdout, "%s\terror: %v\n", out.Spec.ID(), out.Err)
				status = 1
				continue
			}
			fmt.Fprintln(stdout, out.Row)
		}
	} else {
		fig.Run(o)
	}
	fmt.Fprintf(stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	return status
}

// pointJSON renders the point flags set on the command line as the JSON
// object a sweep-service job would carry. With lists set, -kind, -cores and
// -seed become the job's kinds, cores and seeds lists.
func pointJSON(fs *flag.FlagSet, lists bool) ([]byte, error) {
	obj := map[string]json.RawMessage{}
	for _, f := range pointFlags {
		v := fs.Lookup(f.name).Value.String()
		if v == "" {
			continue
		}
		key, raw := f.name, []byte(v)
		switch {
		case lists && axes[f.name] != "":
			key = axes[f.name]
			elems := strings.Split(v, ",")
			for i, e := range elems {
				if e = strings.TrimSpace(e); f.str {
					b, _ := json.Marshal(e)
					e = string(b)
				}
				elems[i] = e
			}
			raw = []byte("[" + strings.Join(elems, ",") + "]")
		case f.str:
			raw, _ = json.Marshal(v)
		case f.name == "faults":
			plan, err := fault.ParseFlag(v)
			if err != nil {
				return nil, err
			}
			raw, _ = json.Marshal(plan)
		}
		if !json.Valid(raw) {
			return nil, fmt.Errorf("-%s %s: not a JSON value", f.name, v)
		}
		obj[key] = raw
	}
	return json.Marshal(obj)
}

// decodeStrict decodes one JSON object into v, refusing unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// printList enumerates the subcommands and everything the point flags
// accept by name.
func printList(w io.Writer, cmds []string) {
	fmt.Fprintf(w, "subcommands: %s\n", strings.Join(cmds, " "))
	fmt.Fprintf(w, "workloads: %s app:<name>\n", workloads)
	var appNames []string
	for _, p := range apps.Profiles() {
		appNames = append(appNames, p.Name)
	}
	fmt.Fprintf(w, "apps: %s\n", strings.Join(appNames, " "))
	fmt.Fprintf(w, "kinds: %s\n", strings.ReplaceAll(names(config.Kinds), "|", " "))
	fmt.Fprintf(w, "variants: %s\n", strings.ReplaceAll(names(config.Variants), "|", " "))
	fmt.Fprintf(w, "macs: %s\n", strings.ReplaceAll(names(wireless.MACKinds), "|", " "))
	fmt.Fprintf(w, "channels: %s\n", strings.ReplaceAll(names(channel.Profiles), "|", " "))
}
