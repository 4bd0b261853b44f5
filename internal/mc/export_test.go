package mc

// MemoKeyBytes sums the lengths of the memo's keys, so the external
// footprint test can split MemoStats' byte count into keys and sets.
func MemoKeyBytes(c *Checker) int {
	n := 0
	for k := range c.cache {
		n += len(k)
	}
	return n
}
