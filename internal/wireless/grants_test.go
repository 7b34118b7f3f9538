package wireless

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestGrantsMatchReferenceMessages checks the relation MACStats.Grants
// documents against every row of the kernel and app reference files. The
// reference points run on the ideal channel without faults, so every grant
// commits unless the run stops first. The CAS kernels stop at a horizon
// (RunUntil), which can cut one transmission in flight: there is one
// medium, so at most one. Every other point runs to completion.
func TestGrantsMatchReferenceMessages(t *testing.T) {
	field := func(row, name string) int {
		m := regexp.MustCompile(regexp.QuoteMeta(name) + `:(\d+)`).FindStringSubmatch(row)
		if m == nil {
			t.Fatalf("%s: no %s field", row[:strings.IndexByte(row, '\t')], name)
		}
		v, _ := strconv.Atoi(m[1])
		return v
	}
	for _, path := range []string{"../kernels/testdata/reference.tsv", "../apps/testdata/reference.tsv"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			id := row[:strings.IndexByte(row, '\t')]
			if lost := field(row, "Retransmissions") + field(row, "DeliveryFailures") + field(row, "FaultedSends"); lost != 0 {
				t.Fatalf("%s: %d lost or resent frames; the reference points run on the ideal channel", id, lost)
			}
			inFlight := field(row, "MAC:{Grants") - field(row, "Net:{Messages")
			maxInFlight := 0
			if strings.HasPrefix(id, "cas-") {
				maxInFlight = 1
			}
			if inFlight < 0 || inFlight > maxInFlight {
				t.Errorf("%s: Grants - Messages = %d, want 0..%d", id, inFlight, maxInFlight)
			}
		}
	}
}
