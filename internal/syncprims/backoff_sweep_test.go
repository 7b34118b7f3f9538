package syncprims

import (
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
	"wisync/internal/wireless"
)

// TestBackoffPolicySweep logs the WiSyncNoT data-barrier cost under the
// available MAC disciplines, documenting the calibration choice
// (docs/ARCHITECTURE.md, substitution 3): the FIFO deferral drain is what
// reproduces the paper's near-capacity channel under synchronized
// fetch&inc bursts. Run with -v for the table.
func TestBackoffPolicySweep(t *testing.T) {
	const cores, episodes = 64, 5
	run := func(def wireless.DeferPolicy, pol wireless.BackoffPolicy, cap int) sim.Time {
		cfg := config.New(config.WiSyncNoT, cores)
		cfg.Wireless.Defer = def
		cfg.Wireless.Backoff = pol
		cfg.Wireless.MaxBackoffExp = cap
		m := core.NewMachine(cfg)
		f := NewFactory(m)
		barrierLoop(m, f.NewTaskBarrier(nil), episodes)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Now() / episodes
	}
	fifoDefault := run(wireless.DeferFIFO, wireless.BackoffPersistent, 0)
	for _, c := range []struct {
		name string
		def  wireless.DeferPolicy
		pol  wireless.BackoffPolicy
		cap  int
	}{
		{"fifo/persistent/auto", wireless.DeferFIFO, wireless.BackoffPersistent, 0},
		{"fifo/permsg/auto", wireless.DeferFIFO, wireless.BackoffPerMessage, 0},
		{"contend/persistent/6", wireless.DeferContend, wireless.BackoffPersistent, 6},
		{"contend/persistent/10", wireless.DeferContend, wireless.BackoffPersistent, 10},
		{"contend/permsg/10", wireless.DeferContend, wireless.BackoffPerMessage, 10},
	} {
		t.Logf("%-22s %5d cycles/barrier", c.name, run(c.def, c.pol, c.cap))
	}
	// The default must keep a 64-arrival barrier within ~2x of the
	// 64-message channel floor (64*5 = 320 cycles).
	if fifoDefault > 650 {
		t.Errorf("default MAC: %d cycles/barrier, want <= 650", fifoDefault)
	}
}
