package explore_test

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/family"
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

// sameSpace fails unless got has want's codes and successor rows, and
// got's Lookup finds every state's code and misses a code outside it.
func sameSpace(t *testing.T, label string, got, want *explore.Space) {
	t.Helper()
	if !slices.Equal(got.Codes(), want.Codes()) || got.NumTransitions() != want.NumTransitions() {
		t.Fatalf("%s: %d states and %d transitions, want %d and %d (or the codes differ)",
			label, got.NumStates(), got.NumTransitions(), want.NumStates(), want.NumTransitions())
	}
	for s := int32(0); int(s) < want.NumStates(); s++ {
		if !slices.Equal(got.Succ(s), want.Succ(s)) {
			t.Fatalf("%s: state %d successors %v, want %v", label, s, got.Succ(s), want.Succ(s))
		}
		if id, ok := got.Lookup(got.Code(s)); !ok || id != s {
			t.Fatalf("%s: Lookup(Code(%d)) = (%d, %v)", label, s, id, ok)
		}
	}
	outside := slices.Max(want.Codes()) + 1
	if id, ok := got.Lookup(outside); ok {
		t.Fatalf("%s: Lookup(%#x), a code outside the space, = %d", label, outside, id)
	}
}

// TestExploreSizeHintsAreCapacityOnly: a Def's declared States and
// Transitions change no code, row or offset of the Space, whether they are
// exact, short (the codes reallocate mid-exploration and the rows and
// offsets switch to per-level segments, together or one at a time), long,
// negative or past MaxStates, at one worker and at two.  Every state's
// code looks up to that state and a code outside the space misses, so a
// table reading its codes from before a reallocation fails.  A size past
// MaxStates allocates nothing up front.
func TestExploreSizeHintsAreCapacityOnly(t *testing.T) {
	const maxStates = 1 << 20
	ctx := context.Background()
	star, ok := family.Packed(family.Star(), 6)
	if !ok {
		t.Fatal("star 6 does not pack")
	}
	var defs []explore.Def
	for r := 1; r <= 10; r++ {
		defs = append(defs, ring.PackedDef(r))
	}
	for r := 2; r <= 6; r++ {
		defs = append(defs, ring.PackedDefBuggy(r))
	}
	defs = append(defs, star.Def)
	for _, def := range defs {
		def.States, def.Transitions = 0, 0
		want, err := explore.Explore(ctx, def, explore.Options{Workers: 1, MaxStates: maxStates})
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		n, e := want.NumStates(), want.NumTransitions()
		hints := []struct {
			name          string
			states, edges int
		}{
			{"exact", n, e},
			{"half", n / 2, e / 2},
			{"double", 2 * n, 2 * e},
			{"exact states, half transitions", n, e / 2},
			{"half states, exact transitions", n / 2, e},
			{"negative", -1, -1},
			{"past MaxStates", maxStates + 1, e},
		}
		for _, h := range hints {
			for _, workers := range []int{1, 2} {
				d := def
				d.States, d.Transitions = h.states, h.edges
				got, err := explore.Explore(ctx, d, explore.Options{Workers: workers, MaxStates: maxStates})
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", def.Name, h.name, workers, err)
				}
				sameSpace(t, fmt.Sprintf("%s %s workers=%d", def.Name, h.name, workers), got, want)
			}
		}
	}

	huge := ring.PackedDef(4)
	huge.States = 1 << 40
	got := allocatedBytes(func() {
		if _, err := explore.Explore(ctx, huge, explore.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 1<<20 {
		t.Errorf("ring[4] declaring 2^40 states allocated %d bytes, want under 1 MiB", got)
	}
}

// TestExploreFootprintHinted bounds what Explore allocates for ring M_12
// (49,152 states, 344,052 transitions), whose Def declares its exact size.
// The Space's arrays are written once: 8 bytes of code and 4 of row offset
// per state, 4 bytes per transition.  The allowance covers the rest.  The
// code table takes 36 bytes per state: 8-byte slots in stripes sized
// exactly for their share of the declared States plus four standard
// deviations (16 at M_12's load, size classes included), and the per-level
// pending lists of 16-byte entries grown by append, with their 4-byte
// index and the 4-byte handle drain (17; about 34 measured on linux/amd64
// in all).  The chunk id streams take 3 bytes per transition: 4 per raw
// successor with 1/8 of slack in chunks of at most 1,024 states, which a
// wider level adds rather than regrows (2.4 measured).  All of it came to
// 4,438,576 bytes.  It came to 5,307,536 with power-of-two stripes and one
// chunk per worker grown by append as levels widened, to 7,886,832 when
// the pending sets were 16-byte open-addressed slots and each chunk copied
// the code of every edge into a state not yet in the table, and to
// 12,959,024 with 16-byte table slots that doubled up from their minimum
// size and a chunk stream of raw codes, ids and resolved rows; all three
// exceed the bound.
func TestExploreFootprintHinted(t *testing.T) {
	def := ring.PackedDef(12)
	var sp *explore.Space
	got := allocatedBytes(func() {
		var err error
		if sp, err = explore.Explore(context.Background(), def, explore.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	n, e := uint64(sp.NumStates()), uint64(sp.NumTransitions())
	if int(n) != def.States || int(e) != def.Transitions {
		t.Fatalf("M_12 has %d states and %d transitions, declared %d and %d", n, e, def.States, def.Transitions)
	}
	base := 12*n + 4*e
	limit := base + 36*n + 3*e
	t.Logf("Explore(M_12): %d bytes, %.1f per state beyond the Space's arrays (bound %d)",
		got, float64(got-base)/float64(n), limit)
	if got > limit {
		t.Errorf("Explore(M_12) allocated %d bytes for %d states and %d transitions, above the %d-byte bound",
			got, n, e, limit)
	}
}

// TestExploreFootprintUndeclared bounds what Explore allocates for a Def
// that declares no size: the buggy ring at r = 8 (65,280 states, 635,816
// transitions), whose codes grow through slices.Grow and whose rows and
// offsets are assembled from per-level segments.  It allocated 12,974,480
// bytes on linux/amd64 with Go 1.24 (13,243,232 under the race detector).
// It allocated 14,462,048 with 16-byte open-addressed pending slots and a
// per-chunk copy of the code of every edge into a state not yet in the
// table, and 17,979,384 with 16-byte table slots and a chunk stream of raw
// codes, ids and resolved rows.
func TestExploreFootprintUndeclared(t *testing.T) {
	def := ring.PackedDefBuggy(8)
	if def.States != 0 || def.Transitions != 0 {
		t.Fatalf("buggy ring declares %d states and %d transitions, want none", def.States, def.Transitions)
	}
	got := allocatedBytes(func() {
		if _, err := explore.Explore(context.Background(), def, explore.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 13_600_000
	t.Logf("Explore(buggy r=8): %d bytes (bound %d)", got, limit)
	if got > limit {
		t.Errorf("Explore(buggy r=8) allocated %d bytes, above the %d-byte bound", got, limit)
	}
}

// TestDrainPendingGrowsGeometrically: the pending buffer is reallocated at
// most ⌈log₂ widest level⌉ + 1 times, over the BFS levels of ring M_12 and
// over levels that widen by one state each, where reallocating at the
// exact size would cost one reallocation per level.
func TestDrainPendingGrowsGeometrically(t *testing.T) {
	sp, err := explore.Explore(context.Background(), ring.PackedDef(12), explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// State ids are in BFS order, so each level is a contiguous id range.
	depth := make([]int, sp.NumStates())
	var ringLevels [][]uint64
	for s := range int32(sp.NumStates()) {
		if depth[s] == len(ringLevels) {
			ringLevels = append(ringLevels, nil)
		}
		ringLevels[depth[s]] = append(ringLevels[depth[s]], sp.Code(s))
		for _, u := range sp.Succ(s) {
			if int32(u) > s && depth[u] == 0 {
				depth[u] = depth[s] + 1
			}
		}
	}
	var rampLevels [][]uint64
	for w := 1; w <= 200; w++ {
		level := make([]uint64, w)
		for j := range level {
			level[j] = uint64(j)
		}
		rampLevels = append(rampLevels, level)
	}
	for _, c := range []struct {
		name   string
		levels [][]uint64
	}{{"ring M_12", ringLevels[1:]}, {"ramp", rampLevels}} {
		name, levels := c.name, c.levels
		widest := 0
		for _, level := range levels {
			widest = max(widest, len(level))
		}
		got, bound := explore.DrainReallocs(levels), bits.Len(uint(widest-1))+1
		if got > bound {
			t.Errorf("%s: %d levels (widest %d): pending buffer reallocated %d times, want at most %d",
				name, len(levels), widest, got, bound)
		}
	}
}
