package mc

import "repro/internal/kripke"

// MemoKeyBytes sums the lengths of the memo's keys, so the external
// footprint test can split MemoStats' byte count into keys and sets.
func MemoKeyBytes(c *Checker) int {
	n := 0
	for k := range c.cache {
		n += len(k)
	}
	return n
}

// PresizeMemo regrows the memo's map with room for extra more entries, so a
// footprint test does not charge the map's own amortised growth to
// whichever query happens to cross a growth threshold.
func PresizeMemo(c *Checker, extra int) {
	grown := make(map[string]kripke.BitSet, len(c.cache)+extra)
	for k, v := range c.cache {
		grown[k] = v
	}
	c.cache = grown
}

// MemoSnapshot returns a copy of every memo entry, keyed as the memo is, so
// a test can check that a later query writes none of them in place.
func MemoSnapshot(c *Checker) map[string]kripke.BitSet {
	out := make(map[string]kripke.BitSet, len(c.cache))
	for k, v := range c.cache {
		out[k] = v.Clone()
	}
	return out
}

// MemoChanged returns the key of a memo entry that no longer equals its
// snapshot, or "" when every snapshotted entry is intact.
func MemoChanged(c *Checker, snap map[string]kripke.BitSet) string {
	for k, v := range snap {
		if !c.cache[k].Equal(v) {
			return k
		}
	}
	return ""
}
