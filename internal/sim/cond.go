package sim

// Cond is a spin condition as data: it holds for a word v when v>>Shift
// compares to K under Op. Every predicate the workloads spin on fits one
// (a free or taken lock, an episode counter reached, a barrier variable's
// expected sense), and two spinners with equal Conds wait for the same
// thing, so a hardware model can test a whole cohort of them at once. The
// zero Cond holds for v == 0.
type Cond struct {
	Op    CondOp
	Shift uint8
	K     uint64
}

// CondOp is a Cond's comparison.
type CondOp uint8

const (
	// OpEq holds when v>>Shift == K.
	OpEq CondOp = iota
	// OpNe holds when v>>Shift != K.
	OpNe
	// OpGe holds when v>>Shift >= K.
	OpGe
)

// Eq returns the condition v == k.
func Eq(k uint64) Cond { return Cond{Op: OpEq, K: k} }

// Ne returns the condition v != k.
func Ne(k uint64) Cond { return Cond{Op: OpNe, K: k} }

// Ge returns the condition v >= k.
func Ge(k uint64) Cond { return Cond{Op: OpGe, K: k} }

// Shifted returns c applied to v>>s instead of v.
func (c Cond) Shifted(s uint8) Cond {
	c.Shift = s
	return c
}

// Holds reports whether c holds for v.
func (c Cond) Holds(v uint64) bool {
	x := v >> c.Shift
	switch c.Op {
	case OpEq:
		return x == c.K
	case OpNe:
		return x != c.K
	}
	return x >= c.K
}
