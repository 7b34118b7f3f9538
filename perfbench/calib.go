package main

import "time"

// The host-calibration loop. A shared cloud host lends its cores to other
// tenants (steal time, a busy hyperthread sibling, no PMU), so neither a
// raw wall-clock second nor a raw CPU second is a fixed amount of host
// capacity. Every timing the benchmark reports is therefore divided by the
// speed of a fixed, allocation-free loop measured in the same stretch of
// time: pointer chasing over a 64 KiB single-cycle permutation, then
// lookups in a fixed 4096-entry map. On a shared 2-vCPU Intel Xeon VM the
// pair tracked pass-to-pass simulator speed with a correlation of 0.81 to
// 0.86; a chase over 1 MiB alone reached only 0.43 to 0.57, because it
// measures the memory hierarchy while the simulator is bound by branches,
// hashing and L1/L2-resident pointer chasing.
const (
	chaseEntries = 1 << 14 // uint32 slots: 64 KiB
	chaseSteps   = 60_000
	mapKeys      = 4096
	mapLookups   = 20_000
	// calibNominal is what one sample is defined to take, about what it
	// takes on that VM. A calibrated timing is raw × calibNominal ÷ the
	// measured sample.
	calibNominal = time.Millisecond
)

// calibrator owns the loop's fixed data and where the last sample stopped.
type calibrator struct {
	next []uint32
	pos  uint32
	m    map[uint64]uint64
	key  uint64
	sink uint64 // keeps the lookups from being optimized away
}

// newCalibrator builds the chase table as one random cycle (Sattolo's
// algorithm) and the map, both from a fixed seed, so every build of the
// benchmark runs the same loop.
func newCalibrator() *calibrator {
	c := &calibrator{next: make([]uint32, chaseEntries), m: make(map[uint64]uint64, mapKeys)}
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c.next) - 1; i > 0; i-- {
		x = splitmix(x)
		j := int(x % uint64(i))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := 0; i < mapKeys; i++ {
		x = splitmix(x)
		c.m[x%(4*mapKeys)] = x
	}
	return c
}

// sample runs the loop once and returns its wall time and the CPU time
// of the calling thread over the same stretch.
func (c *calibrator) sample() (wall, cpu time.Duration) {
	t0, c0 := time.Now(), threadCPU()
	p := c.pos
	for i := 0; i < chaseSteps; i++ {
		p = c.next[p]
	}
	c.pos = p
	var s uint64
	k := c.key
	for i := 0; i < mapLookups; i++ {
		k = splitmix(k)
		s += c.m[k%(4*mapKeys)]
	}
	c.key = k
	c.sink += s
	return time.Since(t0), threadCPU() - c0
}

// calibScale is the factor that converts raw seconds measured alongside
// the given loop samples into calibrated seconds: nominal ÷ their median.
func calibScale(samples []float64) float64 {
	m := median(samples)
	if m <= 0 {
		return 1
	}
	return calibNominal.Seconds() / m
}

// splitmix is the splitmix64 finalizer, the benchmark's one source of
// seeded randomness.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
