package syncprims

// cacheVar is a synchronization variable in regular coherent memory.
type cacheVar struct {
	addr uint64
}

func (v *cacheVar) InBM() bool { return false }

// bmVar is a broadcast variable in the Broadcast Memory.
type bmVar struct {
	addr uint32
}

func (v *bmVar) InBM() bool { return true }
