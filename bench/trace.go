package bench

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark traces from the outside: every span wraps one call the
// benchmark itself makes into a layer's public API.  Spans are kept in
// memory and written when the run ends.  A nil *tracer records nothing,
// so untraced runs pay one nil check per call site.

// layerBench names the benchmark's own orchestration spans (operations,
// cells, keys); every other layer is a package of the repository.
const layerBench = "bench"

// spanRecord is one recorded interval.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Contained names the sibling span a duplicate call's work also happens
	// inside (see kripke.reduce on the sweep).  Such a span still occupies
	// its parent's time, but the layer report and the coverage keep it
	// apart from layer self time.
	Contained string `json:"contained_in,omitempty"`
}

type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open interval; end records it.
type span struct {
	tr    *tracer
	s     spanRecord
	start time.Time
}

// start opens a span under parent (0 for a root) for request req.
func (t *tracer) start(layer, name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{tr: t, start: time.Now(), s: spanRecord{
		ID: t.next.Add(1), Parent: parent, Req: req, Layer: layer, Name: name,
	}}
}

// id is the span's identifier, for use as a parent (0 when untraced).
func (s span) id() int64 { return s.s.ID }

func (s span) end() { s.endContained("") }

func (s span) endContained(in string) {
	if s.tr == nil {
		return
	}
	s.s.StartNS = int64(s.start.Sub(s.tr.t0))
	s.s.EndNS = int64(time.Since(s.tr.t0))
	s.s.Contained = in
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.s)
	s.tr.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	Layer string `json:"layer"`
	Spans int    `json:"spans"`
	// SelfNS is the layer's total self time: span durations minus the part
	// their child spans cover.
	SelfNS int64 `json:"self_ns"`
	// ContainedNS is time measured by duplicate calls, reported apart.
	ContainedNS int64  `json:"contained_ns,omitempty"`
	ContainedIn string `json:"contained_in,omitempty"`
}

// layerStats computes per-layer self time.  A span's self time is its
// duration minus the summed durations of its children, floored at zero
// (children of one span run sequentially except the sweep's parallel
// cells, whose overlap the floor absorbs).
func layerStats(spans []spanRecord) map[string]*layerStat {
	childNS := childDurations(spans)
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Layer]
		if st == nil {
			st = &layerStat{Layer: s.Layer}
			out[s.Layer] = st
		}
		st.Spans++
		dur := s.EndNS - s.StartNS
		if s.Contained != "" {
			st.ContainedNS += dur
			st.ContainedIn = s.Contained
			continue
		}
		if self := dur - childNS[s.ID]; self > 0 {
			st.SelfNS += self
		}
	}
	return out
}

// childDurations maps each span ID to the summed durations of its
// children.  Spans measured apart still occupy their parent's time, so
// they count here too.
func childDurations(spans []spanRecord) map[int64]int64 {
	childNS := make(map[int64]int64)
	for _, s := range spans {
		childNS[s.Parent] += s.EndNS - s.StartNS
	}
	return childNS
}

// coverage is the share of traced time inside named layer spans: layer
// self time over layer plus benchmark self time.
func coverage(stats map[string]*layerStat) float64 {
	var layers, all int64
	for name, st := range stats {
		all += st.SelfNS
		if name != layerBench {
			layers += st.SelfNS
		}
	}
	if all == 0 {
		return 0
	}
	return float64(layers) / float64(all)
}

// writeTrace writes the spans, sorted by start, as one JSON document.
func writeTrace(path string, spans []spanRecord) error {
	sorted := append([]spanRecord(nil), spans...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].StartNS < sorted[b].StartNS })
	blob, err := json.Marshal(struct {
		Spans []spanRecord `json:"spans"`
	}{sorted})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
