package apps

import "slices"

// Profiles returns the 26 applications of Table 3 in the paper's Figure 10
// order: the 12 PARSEC applications (simsmall) followed by the 14 SPLASH-2
// applications (standard inputs).
//
// Parameter provenance: the profiles encode each application's published
// synchronization character — streamcluster and ocean are barrier-phase
// bound, raytrace and radiosity serialize on a handful of hot task/patch
// locks, water-ns uses per-molecule locks, dedup and fluidanimate declare
// lock arrays larger than the 16 KB BM (exercising the spill path), and
// most of the rest synchronize too rarely for the wireless hardware to
// matter. Magnitudes are calibrated against Figure 10
// (TestCalibrationReport prints the fit; see docs/ARCHITECTURE.md,
// substitution 2); iteration counts are scaled down to keep simulations
// tractable, which proportionally raises channel utilization relative to
// Table 5 without changing the who-wins ordering.
func Profiles() []Profile { return slices.Clone(catalogue) }

// catalogue holds the profiles Profiles copies and ByName searches.
var catalogue = []Profile{
	// ---- PARSEC ----
	{Name: "blackscholes", Suite: "PARSEC", Iterations: 8, ComputeMean: 120000, Jitter: 0.3,
		BarriersPerIter: 1, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "bodytrack", Suite: "PARSEC", Iterations: 8, ComputeMean: 90000, Jitter: 0.25,
		BarriersPerIter: 1, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "canneal", Suite: "PARSEC", Iterations: 8, ComputeMean: 60000, Jitter: 0.3,
		LockOpsPerIter: 2, NumLocks: 64, HoldCycles: 30, SharedReadsPerIter: 16, SharedLines: 128},
	{Name: "dedup", Suite: "PARSEC", Iterations: 8, ComputeMean: 50000, Jitter: 0.25,
		LockOpsPerIter: 6, NumLocks: 2400, HoldCycles: 25, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "facesim", Suite: "PARSEC", Iterations: 8, ComputeMean: 150000, Jitter: 0.25,
		BarriersPerIter: 1, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "ferret", Suite: "PARSEC", Iterations: 8, ComputeMean: 60000, Jitter: 0.25,
		LockOpsPerIter: 2, NumLocks: 8, HoldCycles: 60, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "fluidanimate", Suite: "PARSEC", Iterations: 8, ComputeMean: 40000, Jitter: 0.25,
		LockOpsPerIter: 4, NumLocks: 2200, HoldCycles: 15, BarriersPerIter: 1,
		SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "freqmine", Suite: "PARSEC", Iterations: 8, ComputeMean: 160000, Jitter: 0.25,
		BarriersPerIter: 1, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "streamcluster", Suite: "PARSEC", Iterations: 10, ComputeMean: 15000, Jitter: 0.04,
		BarriersPerIter: 5, ReductionsPerIter: 2, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "swaptions", Suite: "PARSEC", Iterations: 8, ComputeMean: 150000, Jitter: 0.3,
		BarriersPerIter: 1, SharedReadsPerIter: 4, SharedLines: 32},
	{Name: "vips", Suite: "PARSEC", Iterations: 8, ComputeMean: 130000, Jitter: 0.3,
		BarriersPerIter: 1, SharedReadsPerIter: 4, SharedLines: 32},
	{Name: "x264", Suite: "PARSEC", Iterations: 8, ComputeMean: 45000, Jitter: 0.3,
		LockOpsPerIter: 2, NumLocks: 32, HoldCycles: 40, SharedReadsPerIter: 8, SharedLines: 64},
	// ---- SPLASH-2 ----
	{Name: "barnes", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 120000, Jitter: 0.2,
		BarriersPerIter: 1, LockOpsPerIter: 3, NumLocks: 16, HoldCycles: 60,
		SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "cholesky", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 40000, Jitter: 0.25,
		LockOpsPerIter: 2, NumLocks: 8, HoldCycles: 50, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "fft", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 180000, Jitter: 0.15,
		BarriersPerIter: 1, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "fmm", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 100000, Jitter: 0.2,
		BarriersPerIter: 1, LockOpsPerIter: 3, NumLocks: 12, HoldCycles: 50,
		SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "lu-c", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 120000, Jitter: 0.15,
		BarriersPerIter: 1, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "lu-nc", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 140000, Jitter: 0.15,
		BarriersPerIter: 2, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "ocean-c", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 70000, Jitter: 0.06,
		BarriersPerIter: 5, ReductionsPerIter: 2, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "ocean-nc", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 75000, Jitter: 0.08,
		BarriersPerIter: 4, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "radiosity", Suite: "SPLASH-2", Iterations: 10, ComputeMean: 16000, Jitter: 0.3,
		LockOpsPerIter: 2, NumLocks: 3, HoldCycles: 80, SharedReadsPerIter: 4, SharedLines: 32},
	{Name: "radix", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 110000, Jitter: 0.1,
		BarriersPerIter: 2, ReductionsPerIter: 4, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "raytrace", Suite: "SPLASH-2", Iterations: 10, ComputeMean: 10000, Jitter: 0.3,
		LockOpsPerIter: 2, NumLocks: 1, HoldCycles: 180, SharedReadsPerIter: 4, SharedLines: 32},
	{Name: "volrend", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 30000, Jitter: 0.25,
		LockOpsPerIter: 2, NumLocks: 8, HoldCycles: 50, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "water-ns", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 35000, Jitter: 0.25,
		LockOpsPerIter: 3, NumLocks: 8, HoldCycles: 60, SharedReadsPerIter: 8, SharedLines: 64},
	{Name: "water-sp", Suite: "SPLASH-2", Iterations: 8, ComputeMean: 60000, Jitter: 0.25,
		BarriersPerIter: 1, LockOpsPerIter: 1, NumLocks: 16, HoldCycles: 30,
		SharedReadsPerIter: 8, SharedLines: 64},
}

// ByName returns the named profile.
func ByName(name string) (Profile, bool) {
	for _, p := range catalogue {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
