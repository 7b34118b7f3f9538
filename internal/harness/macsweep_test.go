package harness

import (
	"strings"
	"testing"

	"wisync/internal/wireless"
)

// TestMACSweepQuick runs the protocol-comparison sweep at quick size and
// checks its structural invariants: every (kernel, cores, MAC) cell is
// filled, token rows never collide, backoff rows never rotate a token,
// and the tables render.
func TestMACSweepQuick(t *testing.T) {
	var out strings.Builder
	rows := MACSweep(Options{Quick: true, Out: &out})
	wantRows := len(macSweepKernels) * 2 * len(wireless.MACKinds)
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.MACStats.Grants == 0 {
			t.Errorf("%s/%dc/%v: no grants recorded", r.Kernel, r.Cores, r.MAC)
		}
		switch r.MAC {
		case wireless.MACToken:
			if r.MACStats.Collisions != 0 || r.Net.Collisions != 0 {
				t.Errorf("%s/%dc/token: collisions under token passing (%+v)", r.Kernel, r.Cores, r.MACStats)
			}
			if r.MACStats.TokenWaitCycles == 0 {
				t.Errorf("%s/%dc/token: no token waits recorded", r.Kernel, r.Cores)
			}
		case wireless.MACBackoff:
			if r.MACStats.TokenWaitCycles != 0 || r.MACStats.ModeSwitches != 0 {
				t.Errorf("%s/%dc/backoff: token/adaptive counters nonzero (%+v)", r.Kernel, r.Cores, r.MACStats)
			}
		}
		if r.Kernel == "tightloop" && r.CyclesPerIter == 0 {
			t.Errorf("%s/%dc/%v: zero cycles/iter", r.Kernel, r.Cores, r.MAC)
		}
		if r.Kernel == "cas-fifo" && r.Per1000 == 0 {
			t.Errorf("%s/%dc/%v: zero throughput", r.Kernel, r.Cores, r.MAC)
		}
	}
	if !strings.Contains(out.String(), "MAC comparison: tightloop") ||
		!strings.Contains(out.String(), "MAC comparison: cas-fifo") {
		t.Error("sweep tables missing from output")
	}
}
