package harness

import (
	"strconv"
	"strings"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/config"
)

// lossySpec is the reference lossy sweep point of this suite: a workload
// that hammers the Data channel (WiSyncNoT routes all synchronization
// through it), at a BER where a visible fraction of frames corrupt
// (77 bits x 63 receivers x 1e-5 ~ 5% per frame) but the retry budget is
// effectively never exhausted.
func lossySpec() PointSpec {
	return PointSpec{
		Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 64, Seed: 3,
		Channel: channel.Uniform, BER: 1e-5, Retries: 20,
	}
}

// col extracts the value of a key=value column from a rendered row.
func col(t *testing.T, row, key string) string {
	t.Helper()
	for _, c := range strings.Split(row, "\t") {
		if v, ok := strings.CutPrefix(c, key+"="); ok {
			return v
		}
	}
	t.Fatalf("row has no %s column: %s", key, row)
	return ""
}

// TestLossyPointDeterministic pins the acceptance criterion for the lossy
// channel: a nonzero-BER point reports retransmissions and a nonzero
// energy total, and its row is byte-identical on a rerun and across sweep
// worker counts — corruption draws happen in commit-event order, which
// the engine keeps invariant.
func TestLossyPointDeterministic(t *testing.T) {
	base := lossySpec()
	ref, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := col(t, ref, "retx"); v == "0" {
		t.Fatalf("no retransmissions at BER %g: %s", base.BER, ref)
	}
	if v := col(t, ref, "energy"); v == "0pJ" {
		t.Fatalf("zero energy total: %s", ref)
	}
	if v := col(t, ref, "drops"); v != "0" {
		t.Fatalf("delivery failures with a 20-retry budget at BER %g: %s", base.BER, ref)
	}
	if again, err := base.Run(); err != nil || again != ref {
		t.Errorf("rerun diverged (%v)\n got: %s\nwant: %s", err, again, ref)
	}
	specs := []PointSpec{base, base, base, base}
	seq := RunPoints(Options{Workers: 1}, specs)
	par := RunPoints(Options{Workers: 4}, specs)
	for i := range specs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("point %d errored: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Row != ref || par[i].Row != ref {
			t.Errorf("point %d diverged across worker counts\n seq: %s\n par: %s\nwant: %s",
				i, seq[i].Row, par[i].Row, ref)
		}
	}
}

// TestIdealChannelRowMatchesGolden pins that an explicitly-selected ideal
// channel renders rows byte-identical to the committed golden matrix —
// the channel model's existence is invisible until a lossy profile is
// asked for.
func TestIdealChannelRowMatchesGolden(t *testing.T) {
	want := loadGolden(t)
	for _, pt := range []GoldenPoint{
		{Kernel: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1},
		{Kernel: "cas-fifo", Kind: config.WiSync, Cores: 16, Seed: 1},
		{Kernel: "livermore2", Kind: config.Baseline, Cores: 16, Seed: 1},
	} {
		row := mustRunPoint(PointSpec{Workload: pt.Kernel, Kind: pt.Kind, Cores: pt.Cores,
			Seed: pt.Seed, Channel: channel.Ideal})
		if row != want[pt.ID()] {
			t.Errorf("%s: explicit ideal channel diverged from golden\n got: %s\nwant: %s",
				pt.ID(), row, want[pt.ID()])
		}
	}
}

// TestChannelDigest pins the content-address behavior of the channel
// fields: a lossy profile splits the digest from ideal, equivalent
// normalized forms share one, and stray BER/retry values under the ideal
// profile are zeroed rather than splitting the address.
func TestChannelDigest(t *testing.T) {
	digest := func(s PointSpec) string {
		t.Helper()
		d, err := s.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1}
	lossy := base
	lossy.Channel = channel.Uniform
	if digest(lossy) == digest(base) {
		t.Fatal("lossy profile did not split the digest")
	}
	explicit := lossy
	explicit.BER = 1e-4
	explicit.Retries = channel.DefaultMaxRetries
	if digest(explicit) != digest(lossy) {
		t.Fatal("normalized defaults split the digest from their explicit form")
	}
	other := lossy
	other.BER = 1e-3
	if digest(other) == digest(lossy) {
		t.Fatal("BER did not split the digest")
	}
	strayed := base
	strayed.BER = 0.5
	strayed.Retries = 7
	if digest(strayed) != digest(base) {
		t.Fatal("BER/retries under the ideal profile split the digest")
	}
}

// TestLossyDataBarrierCompletes: the Data-channel barrier finishes on a
// lossy channel. When the last arriver's release store fails delivery, it
// is reissued until WCB is set; run on with WCB clear, it left every other
// participant spinning on an episode that never came, and both points
// deadlocked. Each carries a budget and a watchdog, so a point that never
// ends comes back as an error instead of hanging the test.
func TestLossyDataBarrierCompletes(t *testing.T) {
	for _, p := range []PointSpec{
		{Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 64, Seed: 1, Iters: 6,
			Channel: channel.Uniform, BER: 1e-3, Retries: 64},
		{Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 256, Seed: 1, Iters: 25,
			Channel: channel.Uniform},
	} {
		p.Budget, p.Watchdog = 50_000_000, 2_000_000
		row, err := p.Run()
		if err != nil {
			t.Errorf("%s: %v", p.ID(), err)
			continue
		}
		if v := col(t, row, "iters"); v != strconv.Itoa(p.Iters) {
			t.Errorf("%s: %s iterations, want %d: %s", p.ID(), v, p.Iters, row)
		}
		if v := col(t, row, "drops"); v == "0" {
			t.Errorf("%s: no failed deliveries, so no release was reissued: %s", p.ID(), row)
		}
	}
}

// TestLossyToneBarrierCompletes: the tone barrier finishes on a lossy
// channel. At BER 1e-3 a 77-bit init from one of 128 nodes survives every
// receiver with p ~ 6e-5, so all first arrivers' inits of an episode can
// fail together; unreissued, the barrier never activated and every task
// deadlocked in its tone wait (at cycle 11360 for this point).
func TestLossyToneBarrierCompletes(t *testing.T) {
	p := PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 128, Seed: 1,
		Channel: channel.Uniform, BER: 1e-3, Budget: 50_000_000, Watchdog: 2_000_000}
	n, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	row, err := p.Run()
	if err != nil {
		t.Fatalf("%s: %v", p.ID(), err)
	}
	if v := col(t, row, "iters"); v != strconv.Itoa(n.Iters) {
		t.Errorf("%s: %s iterations, want %d: %s", p.ID(), v, n.Iters, row)
	}
}

// TestLossyBMLockReleaseCompletes: applications whose Broadcast Memory
// spin locks are released on a lossy channel finish. A release whose
// broadcast failed reached no replica; unreissued, the lock stayed taken
// everywhere and its waiters deadlocked in their spin.
func TestLossyBMLockReleaseCompletes(t *testing.T) {
	for _, app := range []string{"dedup", "radiosity", "raytrace", "water-ns"} {
		p := PointSpec{Workload: "app:" + app, Kind: config.WiSync, Cores: 16, Seed: 1, Iters: 2,
			Channel: channel.Uniform, BER: 1e-3, Budget: 50_000_000, Watchdog: 2_000_000}
		row, err := p.Run()
		if err != nil {
			t.Errorf("%s: %v", p.ID(), err)
			continue
		}
		if v := col(t, row, "drops"); v == "0" {
			t.Errorf("%s: no failed deliveries, so nothing was reissued: %s", p.ID(), row)
		}
	}
}
