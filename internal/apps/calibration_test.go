package apps

import (
	"testing"

	"wisync/internal/config"
	"wisync/internal/stats"
)

// TestCalibrationReport prints the full Figure 10 / Table 5 reproduction at
// 64 cores. Run with -v to inspect during calibration. It asserts only the
// coarse shape; exact bands are asserted by the focused tests below.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep")
	}
	base := config.New(config.Baseline, 64)
	var wSpeed, bpSpeed, wntSpeed []float64
	var wUtil, wntUtil []float64
	for _, p := range Profiles() {
		sp := Speedups(base, p)
		wnt := Run(withKind(base, config.WiSyncNoT), p)
		w := Run(withKind(base, config.WiSync), p)
		t.Logf("%-14s B+ %.2f  WNT %.2f  W %.2f   util WT %.2f%% W %.2f%%",
			p.Name, sp[config.BaselinePlus], sp[config.WiSyncNoT], sp[config.WiSync],
			wnt.DataUtilPct(), w.DataUtilPct())
		wSpeed = append(wSpeed, sp[config.WiSync])
		bpSpeed = append(bpSpeed, sp[config.BaselinePlus])
		wntSpeed = append(wntSpeed, sp[config.WiSyncNoT])
		wUtil = append(wUtil, w.DataUtilPct())
		wntUtil = append(wntUtil, wnt.DataUtilPct())
	}
	t.Logf("geomean: B+ %.3f  WNT %.3f  W %.3f  (paper: ~1.10, ~1.22, 1.23)",
		stats.GeoMean(bpSpeed), stats.GeoMean(wntSpeed), stats.GeoMean(wSpeed))
	t.Logf("mean:    B+ %.3f  WNT %.3f  W %.3f",
		stats.Mean(bpSpeed), stats.Mean(wntSpeed), stats.Mean(wSpeed))
	gm := stats.GeoMean(wSpeed)
	if gm < 1.10 || gm > 1.45 {
		t.Errorf("WiSync geomean speedup %.3f outside [1.10, 1.45] (paper 1.23)", gm)
	}
}

func withKind(c config.Config, k config.Kind) config.Config {
	c.Kind = k
	return c
}
