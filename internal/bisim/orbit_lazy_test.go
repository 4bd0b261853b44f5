package bisim_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
)

// ringWithAction builds ring M_n through the packed route and verifies the
// rotation action on it.
func ringWithAction(t *testing.T, n int) (*kripke.Structure, *kripke.IndexAction) {
	t.Helper()
	ctx := context.Background()
	m, sp, err := family.BuildParallel(ctx, family.Ring(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pi, _ := family.Packed(family.Ring(), n)
	a, err := pi.IndexAction(ctx, sp, m)
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

// allocatedBytes returns the bytes fn allocates, averaged over runs calls
// after one warm-up call (which also fills the structures' caches).
func allocatedBytes(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestOrbitLazyFootprint: deciding ring M_3 ~ M_12 by orbits costs its
// one basis decision (both reductions and the Compute) plus flag scratch
// linear in the states, and nothing per transported pair.  The bound is
// the basis decision plus 16 bytes per state of the two structures;
// materialising the twelve transported relations, as IndexedCompute once
// did, more than doubles the basis decision's bytes.
func TestOrbitLazyFootprint(t *testing.T) {
	const runs = 3
	ctx := context.Background()
	small, left := ringWithAction(t, 3)
	large, right := ringWithAction(t, 12)
	in := family.Ring().IndexRelation(3, 12)
	opts := family.CorrespondOptions(family.Ring())
	basis := []bisim.IndexPair{{I: left.Representatives()[0], I2: right.Representatives()[0]}}
	var err error
	basisBytes := allocatedBytes(runs, func() {
		if _, e := bisim.IndexedCompute(ctx, small, large, basis, opts); e != nil {
			err = e
		}
	})
	opts.LeftAction, opts.RightAction = left, right
	var res *bisim.IndexedResult
	orbitBytes := allocatedBytes(runs, func() {
		r, e := bisim.IndexedCompute(ctx, small, large, in, opts)
		if e != nil {
			err = e
		}
		res = r
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corresponds() || res.Len() != len(in) || res.Len() < 12 {
		t.Fatalf("M_3 ~ M_12: corresponds=%v over %d pairs, want true over %d ≥ 12", res.Corresponds(), res.Len(), len(in))
	}
	states := small.NumStates() + large.NumStates()
	limit := basisBytes + 16*float64(states)
	t.Logf("IndexedCompute over %d pairs: %.0f B; one basis decision: %.0f B; bound %.0f B", len(in), orbitBytes, basisBytes, limit)
	if orbitBytes > limit {
		t.Errorf("IndexedCompute over %d pairs allocates %.0f bytes, above the basis decision's %.0f plus 16 bytes per state (%.0f)",
			len(in), orbitBytes, basisBytes, limit)
	}
}

// TestOrbitConcurrentMaterialise: a Session shares cached correspondences
// across requests, so eight goroutines calling Pair and ranging Pairs on
// one result must all materialise the relations a sequential pass does.
func TestOrbitConcurrentMaterialise(t *testing.T) {
	small, left := ringWithAction(t, 3)
	large, right := ringWithAction(t, 8)
	opts := family.CorrespondOptions(family.Ring())
	opts.LeftAction, opts.RightAction = left, right
	res, err := bisim.IndexedCompute(context.Background(), small, large, family.Ring().IndexRelation(3, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[bisim.IndexPair][]byte)
	for p, pr := range res.Pairs {
		want[p] = pr.Relation.AppendCSR(nil)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p, csr := range want {
				if pr, ok := res.Pair(p); !ok || !bytes.Equal(pr.Relation.AppendCSR(nil), csr) {
					errs <- "Pair"
					return
				}
			}
			n := 0
			for p, pr := range res.Pairs {
				n++
				if !bytes.Equal(pr.Relation.AppendCSR(nil), want[p]) {
					errs <- "Pairs"
					return
				}
			}
			if n != len(want) {
				errs <- "Pairs (count)"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for which := range errs {
		t.Errorf("a goroutine's %s materialised a relation that differs from the sequential pass", which)
	}
}
