package core

// Pooled takes the machine Finish last put in the pool, as Finish left
// it, or returns nil when the pool has none.
func Pooled() *Machine {
	m, _ := machines.Get().(*Machine)
	return m
}

// KeepsWorkload reports whether m keeps workload state across points:
// state of its own, or state on one of its tasks.
func (m *Machine) KeepsWorkload() bool {
	if len(m.kept) > 0 {
		return true
	}
	for _, t := range m.tasks {
		if len(t.kept) > 0 {
			return true
		}
	}
	return false
}
