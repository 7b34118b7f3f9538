package main

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/harness"
)

// runBench runs the command and returns its exit status and standard
// output without the "# wisync-bench" header.
func runBench(t *testing.T, args ...string) (int, []string) {
	t.Helper()
	var stdout, stderr strings.Builder
	status := run(args, &stdout, &stderr)
	var rows []string
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	return status, rows
}

// jsonNames lists PointSpec's fields by their JSON keys.
func jsonNames() []string {
	var out []string
	t := reflect.TypeOf(harness.PointSpec{})
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		out = append(out, name)
	}
	return out
}

// TestPointFlagsMatchPointSpec: the flag table and PointSpec's JSON schema
// name the same fields, each once, so no knob exists on one side only.
func TestPointFlagsMatchPointSpec(t *testing.T) {
	var flags []string
	for _, f := range pointFlags {
		flags = append(flags, f.name)
	}
	fields := jsonNames()
	if !reflect.DeepEqual(flags, fields) {
		t.Fatalf("point flags %v\nPointSpec JSON fields %v", flags, fields)
	}
}

// TestSubcommandOwnedFlagIsUsageError: a point flag for a field the
// subcommand sets itself, a figure flag given to point, and a flag after
// the subcommand all exit 2.
func TestSubcommandOwnedFlagIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-cs", "64", "fig7"},
		{"-mac", "token", "macs"},
		{"-variant", "SlowNet", "fig11"},
		{"-kind", "WiSync", "all"},
		{"-quick", "point"},
		{"-v", "point"},
		{"fig7", "-quick"},
	} {
		if status, _ := runBench(t, args...); status != 2 {
			t.Errorf("wisync-bench %s: exit %d, want 2", strings.Join(args, " "), status)
		}
	}
}

// TestPointRowsMatchPointSpec: point prints PointSpec.Run's row. Under
// -channel uniform the BER takes its 1e-4 default, as in a server job.
func TestPointRowsMatchPointSpec(t *testing.T) {
	status, rows := runBench(t, "-workload", "tightloop", "-kind", "WiSyncNoT", "-cores", "16", "-channel", "uniform", "point")
	want, err := harness.PointSpec{Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 16, Seed: 1,
		Channel: channel.Uniform}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if status != 0 || len(rows) != 1 || rows[0] != want {
		t.Fatalf("exit %d, rows %q\nwant %q", status, rows, want)
	}
	if !strings.Contains(want, "\tretx=26\t") {
		t.Errorf("lossy row lost its retransmissions: %s", want)
	}
}

// TestPointGoldenJob: point over the service's golden job prints the golden
// matrix's rows, in its order.
func TestPointGoldenJob(t *testing.T) {
	raw, err := os.ReadFile("../../internal/harness/testdata/golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")[:8]
	status, rows := runBench(t, "-workload", "tightloop", "-kind", "Baseline,Baseline+,WiSyncNoT,WiSync",
		"-cores", "16,64", "-seed", "1", "point")
	if status != 0 || !reflect.DeepEqual(rows, want) {
		t.Fatalf("exit %d, rows\n%s\nwant\n%s", status, strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}
