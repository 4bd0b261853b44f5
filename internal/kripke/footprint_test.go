package kripke_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/explore"
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

// TestBuildFromSpaceLabelsPerState bounds what explore.BuildFromSpace
// allocates for ring M_12 (49,152 states, each with its own label).  The
// structure adopts the space's successor rows and transposes them only on
// the first Pred call, so the transition relation costs nothing.  The state
// tables take 8 bytes per state: the label ids, which the builder hands to
// the structure, and the structure's "exactly one" ids, 4 bytes each.  A
// label costs one 8-byte row, which the build rewrites in place over the
// sorted vocabulary, a 4-byte "exactly one" id, and two to four 4-byte
// slots of the intern table: 28 bytes at most, the per-state allowance
// (23.0 measured on linux/amd64), plus 64 KiB.  Copying the label ids
// into the structure and laying the rows out a second time (35.0 bytes
// per state, 2,112,312 in all) exceeds the bound, and so do copying the
// successor rows (8 bytes per transition through an edge list, 4 more for
// the copy) and cloning each label as a []Prop with a key string and a
// ones slice, about a kilobyte per state.
func TestBuildFromSpaceLabelsPerState(t *testing.T) {
	const r = 12
	ctx := context.Background()
	def := ring.PackedDef(r)
	sp, err := explore.Explore(ctx, def, explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, edges := sp.NumStates(), sp.NumTransitions()
	var m *kripke.Structure
	got := allocatedBytes(func() {
		if m, err = explore.BuildFromSpace(ctx, def, sp); err != nil {
			t.Fatal(err)
		}
	})
	if m.NumLabels() != n {
		t.Fatalf("M_%d has %d labels for %d states, want one per state", r, m.NumLabels(), n)
	}
	const labelAllowance = 28
	base := 8 * n
	limit := uint64(base) + labelAllowance*uint64(n) + 64<<10
	t.Logf("BuildFromSpace(M_%d): %d bytes, %.1f per state beyond the state tables (bound %d)",
		r, got, float64(int64(got)-int64(base))/float64(n), limit)
	if got > limit {
		t.Errorf("BuildFromSpace(M_%d) allocated %d bytes for %d states and %d transitions, above the %d-byte bound",
			r, got, n, edges, limit)
	}
}

// TestBuildFromSpaceSharesSpace: the structure built from an explored
// space reads its successor rows from the space's own backing array, with
// no copy, for every state of ring M_8.
func TestBuildFromSpaceSharesSpace(t *testing.T) {
	ctx := context.Background()
	def := ring.PackedDef(8)
	sp, err := explore.Explore(ctx, def, explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := explore.BuildFromSpace(ctx, def, sp)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != sp.NumStates() || m.NumTransitions() != sp.NumTransitions() {
		t.Fatalf("structure has %d states and %d transitions, space %d and %d",
			m.NumStates(), m.NumTransitions(), sp.NumStates(), sp.NumTransitions())
	}
	for s := 0; s < sp.NumStates(); s++ {
		got, want := m.Succ(kripke.State(s)), sp.Succ(int32(s))
		if len(got) == 0 || len(got) != len(want) || &got[0] != &want[0] {
			t.Fatalf("state %d: Succ is %v at %p, the space's row %v at %p; want the same backing",
				s, got, got, want, want)
		}
	}
}

// allocatedOnce returns the bytes one call of fn allocates.
func allocatedOnce(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPredBuiltOnceAndShared: a structure built from an explored space
// holds no predecessor rows until the first Pred call transposes its
// relation, once for the structure and every reduction sharing it.  Eight
// goroutines racing their first Pred calls over ring M_8 and its
// normalized reductions all read an eager transpose's rows, and once one
// structure has transposed, a reduction's first Pred allocates nothing.
func TestPredBuiltOnceAndShared(t *testing.T) {
	ctx := context.Background()
	def := ring.PackedDef(8)
	sp, err := explore.Explore(ctx, def, explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *kripke.Structure {
		m, err := explore.BuildFromSpace(ctx, def, sp)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := build()
	n := m.NumStates()
	want := make([][]kripke.State, n)
	for s := 0; s < n; s++ {
		for _, u := range m.Succ(kripke.State(s)) {
			want[u] = append(want[u], kripke.State(s))
		}
	}
	structs := []*kripke.Structure{m}
	for _, i := range m.IndexValues() {
		structs = append(structs, m.ReduceNormalized(i))
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range structs {
				x := structs[(g+k)%len(structs)]
				for s := 0; s < n; s++ {
					if got := x.Pred(kripke.State(s)); !slices.Equal(got, want[s]) {
						errs[g] = fmt.Errorf("%s: Pred(%d) = %v, want %v", x.Name(), s, got, want[s])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	fresh := build()
	before := fresh.ReduceNormalized(1)
	edges := uint64(fresh.NumTransitions())
	if got := allocatedOnce(func() { fresh.Pred(0) }); got < 4*edges {
		t.Errorf("the first Pred on a built M_8 allocated %d bytes, want the %d-byte transpose: "+
			"BuildFromSpace built the predecessor rows", got, 4*edges)
	}
	after := fresh.ReduceNormalized(2)
	for _, x := range []*kripke.Structure{before, after} {
		if got := allocatedOnce(func() { x.Pred(0) }); got != 0 {
			t.Errorf("%s: its first Pred, after M_8's, allocated %d bytes, want 0", x.Name(), got)
		}
	}
}
