package explore

// DrainReallocs replays Explore's per-level use of the code table's pending
// handle buffer over levels (each level's newly discovered codes, in stream
// order) and returns how many times drainPending reallocated the buffer.
func DrainReallocs(levels [][]uint64) int {
	t := newCodeTable(true, 1)
	var pend []int32
	reallocs := 0
	for _, level := range levels {
		for j, code := range level {
			if _, ok := t.claim(code, uint64(j)); !ok {
				panic("explore: pending entry handle overflow")
			}
		}
		before := cap(pend)
		pend = t.drainPending(pend)
		if cap(pend) != before {
			reallocs++
		}
		t.resetPending()
	}
	return reallocs
}
