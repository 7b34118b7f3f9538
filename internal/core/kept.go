package core

// Kept is workload state that a machine keeps from one point to the next,
// so that a point on a recycled machine allocates almost nothing: a
// kernel's per-task step, a factory of synchronization primitives. A
// point takes it with TaskState or MachineState, and Finish calls Release
// on everything the point took.
type Kept interface {
	// Release drops every reference the state holds to the point that
	// took it: continuations, result vectors, the point's configuration.
	// What the state keeps for the next point (steps, arrays, cached
	// method values) stays.
	Release()
}

// kept is one value of the workload state a Task or Machine keeps, and
// whether the running point has taken it.
type kept struct {
	v     Kept
	taken bool
}

// TaskState returns state of type S that t keeps across points: the
// value t's earlier points used, released, or a new one the first time.
// A task that takes S twice in one point gets two values.
func TaskState[S any, P interface {
	*S
	Kept
}](t *Task) P {
	return take[S, P](&t.kept)
}

// MachineState returns state of type S that m keeps across points: the
// point's i-th call for S gets the i-th value of S made on m, released
// since, or a new one. A workload that makes the same states in the same
// order every point (its factories, its shared kernel state) gets the
// same values back.
func MachineState[S any, P interface {
	*S
	Kept
}](m *Machine) P {
	return take[S, P](&m.kept)
}

func take[S any, P interface {
	*S
	Kept
}](list *[]kept) P {
	for i := range *list {
		e := &(*list)[i]
		if s, ok := e.v.(P); ok && !e.taken {
			e.taken = true
			return s
		}
	}
	s := P(new(S))
	*list = append(*list, kept{v: s, taken: true})
	return s
}

// release releases every value of list the finished point took.
func release(list []kept) {
	for i := range list {
		if e := &list[i]; e.taken {
			e.v.Release()
			e.taken = false
		}
	}
}
