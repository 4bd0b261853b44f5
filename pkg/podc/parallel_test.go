package podc_test

import (
	"context"
	"sync"
	"testing"

	"repro/pkg/podc"
)

// TestSessionParallelBuildSingleFlight is the PR's concurrency stress test:
// eight goroutines simultaneously request the r = 12 ring (49 152 states)
// from one shared Session configured for parallel construction.  The
// session's single-flight dedup must hand every goroutine the *same* built
// instance — one construction, seven joins — and the parallel build must
// agree with the sequential one.
func TestSessionParallelBuildSingleFlight(t *testing.T) {
	ctx := context.Background()
	const r, goroutines = 12, 8
	s := podc.NewSession(podc.WithParallelBuild(4))

	start := make(chan struct{})
	rings := make([]*podc.Structure, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start // release everyone at once so the flights really race
			rings[g], errs[g] = s.Instance(ctx, podc.RingTopology(), r)
		}(g)
	}
	close(start)
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if rings[g] != rings[0] {
			t.Fatalf("goroutine %d got a different instance than goroutine 0: single-flight dedup failed", g)
		}
	}

	want, err := podc.RingTopology().Build(r)
	if err != nil {
		t.Fatal(err)
	}
	got := rings[0]
	if got.NumStates() != want.NumStates() || got.NumTransitions() != want.NumTransitions() {
		t.Fatalf("parallel-built ring has %d states / %d transitions, sequential has %d / %d",
			got.NumStates(), got.NumTransitions(), want.NumStates(), want.NumTransitions())
	}
}
