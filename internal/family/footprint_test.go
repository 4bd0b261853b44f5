package family

import (
	"context"
	"runtime"
	"testing"
)

// meanAllocatedBytes returns the bytes fn allocates, averaged over runs
// calls after one warm-up call.
func meanAllocatedBytes(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestParallelBuildFootprint bounds what the packed route costs on the
// small token instances every Session builds through it: BuildParallel
// with one worker may allocate at most 3 KiB per state and 256 bytes per
// transition of the instance it returns.  The explorer's 64-stripe code
// table is what dominates a few-dozen-state space, so a stripe floor sized
// for large spaces (64 slots, which doubles the cost) fails this.
func TestParallelBuildFootprint(t *testing.T) {
	const n, runs = 8, 20
	ctx := context.Background()
	for _, topo := range []Topology{Star(), Line(), Tree(), Torus()} {
		m, _, err := BuildParallel(ctx, topo, n, 1)
		if err != nil {
			t.Fatalf("%s[%d]: %v", topo.Name(), n, err)
		}
		got := meanAllocatedBytes(runs, func() {
			if _, _, e := BuildParallel(ctx, topo, n, 1); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s[%d]: %v", topo.Name(), n, err)
		}
		limit := float64(3<<10*m.NumStates() + 256*m.NumTransitions())
		t.Logf("%s[%d]: BuildParallel %.0f B for %d states and %d transitions (bound %.0f)",
			topo.Name(), n, got, m.NumStates(), m.NumTransitions(), limit)
		if got > limit {
			t.Errorf("%s[%d]: BuildParallel allocates %.0f bytes for %d states and %d transitions, above the %.0f-byte bound",
				topo.Name(), n, got, m.NumStates(), m.NumTransitions(), limit)
		}
	}
}
