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
// with one worker may allocate at most twice the topology's sequential
// Build.  The explorer's 64-stripe code table is what dominates a
// few-dozen-state space, so a stripe floor sized for large spaces fails
// this.
func TestParallelBuildFootprint(t *testing.T) {
	const n, runs = 8, 20
	ctx := context.Background()
	for _, topo := range []Topology{Star(), Line(), Tree(), Torus()} {
		var err error
		seq := meanAllocatedBytes(runs, func() {
			if _, e := topo.Build(n); e != nil {
				err = e
			}
		})
		packed := meanAllocatedBytes(runs, func() {
			if _, _, e := BuildParallel(ctx, topo, n, 1); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s[%d]: %v", topo.Name(), n, err)
		}
		t.Logf("%s[%d]: BuildParallel %.0f B, Build %.0f B (%.2fx)", topo.Name(), n, packed, seq, packed/seq)
		if packed > 2*seq {
			t.Errorf("%s[%d]: BuildParallel allocates %.0f bytes, more than twice Build's %.0f", topo.Name(), n, packed, seq)
		}
	}
}
