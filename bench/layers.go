package bench

import "repro/internal/store"

// selfNS sums the self time of the spans selected by keep: each span's
// duration minus its children's, floored at zero.  A span measured apart
// (Contained) has no children, so it counts in full.
func selfNS(spans []spanRecord, keep func(spanRecord) bool) int64 {
	childNS := childDurations(spans)
	var total int64
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		if self := s.EndNS - s.StartNS - childNS[s.ID]; self > 0 {
			total += self
		}
	}
	return total
}

func byLayer(layer string) func(spanRecord) bool {
	return func(s spanRecord) bool { return s.Layer == layer }
}

func byName(name string) func(spanRecord) bool {
	return func(s spanRecord) bool { return s.Name == name }
}

// spanLayerMetrics derives the per-layer times that come straight from the
// spans, in milliseconds (microseconds for parsing) per operation.
func spanLayerMetrics(spans []spanRecord, ops float64) map[string]float64 {
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	return map[string]float64{
		"explore.build_ms": perOp(selfNS(spans, byLayer("explore"))),
		"kripke.reduce_ms": perOp(selfNS(spans, byLayer("kripke"))),
		"bisim.compute_ms": perOp(selfNS(spans, byName("bisim.IndexedCompute"))),
		"bisim.check_ms":   perOp(selfNS(spans, byName("bisim.Check"))),
		"core.validate_ms": perOp(selfNS(spans, byLayer("core"))),
		"store.get_ms":     perOp(selfNS(spans, byName("store.Get"))),
		"store.restore_ms": perOp(selfNS(spans, byName("CorrespondenceRecord.Restore"))),
		"store.put_ms":     perOp(selfNS(spans, byName("store.Put"))),
		"logic.parse_us":   1000 * perOp(selfNS(spans, byLayer("logic"))),
		"mc.holds_ms":      perOp(selfNS(spans, byLayer("mc"))),
	}
}

// storeCounts accumulates verdict-store counters over operations.
type storeCounts struct{ store.Stats }

func (c *storeCounts) add(s store.Stats) {
	c.Hits += s.Hits
	c.Misses += s.Misses
	c.Invalid += s.Invalid
	c.Writes += s.Writes
}

func (c storeCounts) perOp(layer map[string]float64, ops float64) {
	layer["store.hits"] = float64(c.Hits) / ops
	layer["store.misses"] = float64(c.Misses) / ops
	layer["store.invalid"] = float64(c.Invalid) / ops
	layer["store.writes"] = float64(c.Writes) / ops
}
