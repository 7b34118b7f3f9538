package sim

// Rand is a small deterministic PRNG (splitmix64). It is not safe for
// concurrent use, which is fine: the engine is single-threaded.
type Rand struct {
	s uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Jitter returns a value drawn uniformly from [mean*(1-spread),
// mean*(1+spread)], never below min. It is used to skew thread arrival
// times in workload models.
func (r *Rand) Jitter(mean float64, spread float64, min float64) float64 {
	v := mean * (1 + spread*(2*r.Float64()-1))
	if v < min {
		v = min
	}
	return v
}

// Fork returns a new generator seeded from this one, for giving subsystems
// independent deterministic streams.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64()) }
