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

	seq, err := podc.BuildRing(r)
	if err != nil {
		t.Fatal(err)
	}
	got, want := rings[0], seq.Structure()
	if got.NumStates() != want.NumStates() || got.NumTransitions() != want.NumTransitions() {
		t.Fatalf("parallel-built ring has %d states / %d transitions, sequential has %d / %d",
			got.NumStates(), got.NumTransitions(), want.NumStates(), want.NumTransitions())
	}
}

// TestSessionSymmetryInstances: a Session configured with WithSymmetry
// serves topology instances built by the certified quotient-unfold route —
// cached (same pointer on a repeat request) and of the same size as the
// direct build.
func TestSessionSymmetryInstances(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithSymmetry())
	topo := podc.StarTopology()
	n := topo.CutoffSize() + 2

	m1, err := s.Instance(ctx, topo, n)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Instance(ctx, topo, n)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("repeated symmetry-mode Instance requests were not served from the cache")
	}
	direct, err := topo.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	if m1.NumStates() != direct.NumStates() {
		t.Fatalf("unfolded instance has %d states, direct build has %d", m1.NumStates(), direct.NumStates())
	}

	// The symmetry route still decides the family's cutoff correspondence
	// (the unfolded oracle is bisimilar to the direct build).
	res, err := s.Correspondence(ctx, topo, topo.CutoffSize(), n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corresponds() {
		t.Fatalf("star %d ~ %d should correspond through the symmetry-built instances", topo.CutoffSize(), n)
	}
}
