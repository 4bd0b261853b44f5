package kripke_test

import (
	"runtime"
	"testing"

	"repro/internal/kripke"
	"repro/internal/ring"
)

// allocatedBytes returns the bytes fn allocates, the least of three runs so
// a stray runtime allocation cannot inflate it.
func allocatedBytes(fn func()) uint64 {
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	return least
}

// TestReduceAllocatesPerDistinctLabel bounds what ReduceNormalized allocates
// for ring M_10, whose 10,240 states carry 10,240 distinct labels but whose
// reductions have only a handful: the per-state tables (the reduced label
// id of every state and of every original label, 4 bytes each) plus a
// per-distinct-label allowance.  Cloning every label's surviving props,
// rather than only the first copy of each reduced label, exceeds it.
func TestReduceAllocatesPerDistinctLabel(t *testing.T) {
	inst, err := ring.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	m := inst.M
	if m.NumStates() != 10240 || m.NumLabels() != 10240 {
		t.Fatalf("M_10 has %d states and %d labels, want 10240 of each", m.NumStates(), m.NumLabels())
	}
	for _, i := range m.IndexValues() {
		var red *kripke.Structure
		got := allocatedBytes(func() { red = m.ReduceNormalized(i) })
		distinct := red.NumLabels()
		limit := uint64(4*m.NumStates()+4*m.NumLabels()) + uint64(distinct)*512 + 4096
		if got > limit {
			t.Errorf("ReduceNormalized(%d) allocated %d bytes for %d distinct reduced labels, above the %d-byte bound",
				i, got, distinct, limit)
		}
	}
}
