// Command wisync-worker is one OS-isolated sweep-point executor: the
// subprocess side of cmd/wisync-server's -isolation=proc mode.
//
// It speaks the harness wire protocol on stdin/stdout — one
// harness.WireRequest (a JSON-encoded PointSpec) per line down, one
// harness.WireResponse (the golden-format row or a structured error) back
// — and runs the exact PointSpec.Run path, so rows computed here are
// byte-identical to in-process execution. The process carries no state
// between points: the durable cache lives with the supervisor.
//
// Workers are not meant to be launched by hand; internal/workerpool
// spawns, feeds, hard-kills and restarts them. Run one interactively for
// debugging:
//
//	echo '{"seq":1,"spec":{"workload":"tightloop","kind":"WiSync","cores":16,"seed":1}}' | wisync-worker
//
// Exit status is 0 on a clean EOF from the supervisor and 1 on a
// malformed request stream or broken pipe; anything else (signal death,
// OOM kill, runtime crash) is exactly the failure mode process isolation
// exists to contain.
package main

import (
	"flag"
	"fmt"
	"os"

	"wisync/internal/harness"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: wisync-worker < requests.ndjson\n\nsweep-point worker subprocess; see cmd/wisync-server -isolation=proc\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := harness.ServeWire(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "wisync-worker: %v\n", err)
		os.Exit(1)
	}
}
