package repro_test

// The benchmarks in this file regenerate every experiment of the
// reproduction (see DESIGN.md §3 and EXPERIMENTS.md) and time the individual
// engines the experiments are built from.  Run them with
//
//	go test -bench=. -benchmem
//
// The experiment identifiers (E1..E10) match DESIGN.md.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bisim"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
	"repro/internal/paperfig"
	"repro/internal/ring"
	"repro/internal/store"
	"repro/internal/symmetry"
)

// ---------------------------------------------------------------------------
// E1..E10: one benchmark per experiment table.
// ---------------------------------------------------------------------------

func BenchmarkFig31Correspondence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig31(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig41Counting(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig41(context.Background(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig51BuildM2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig51(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingInvariantsAndProperties(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RingChecks(context.Background(), 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorrespondenceCutoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CorrespondenceCutoff(context.Background(), 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixLocalCheck1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LocalRefutation(context.Background(), []int{1000}, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStateExplosionTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StateExplosion(context.Background(), 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Minimization(context.Background(), 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNestingConjecture(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NestingConjecture(context.Background(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossTopology(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrossTopology(context.Background(), 5); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E7 in detail: the state-explosion series (direct model checking of M_r)
// versus the parameterized route, per ring size.
// ---------------------------------------------------------------------------

func BenchmarkStateExplosionDirect(b *testing.B) {
	for _, r := range []int{2, 4, 6, 8, 10, 12} {
		r := r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			inst, err := ring.Build(r)
			if err != nil {
				b.Fatal(err)
			}
			props := ring.Properties()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checker := mc.New(inst.M)
				for _, p := range props {
					holds, err := checker.Holds(context.Background(), p.Formula)
					if err != nil {
						b.Fatal(err)
					}
					if !holds {
						b.Fatalf("property %s unexpectedly fails on M_%d", p.Name, r)
					}
				}
			}
			b.ReportMetric(float64(inst.M.NumStates()), "states")
		})
	}
}

func BenchmarkStateExplosionBuild(b *testing.B) {
	for _, r := range []int{4, 8, 12, 14} {
		r := r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				m, err := family.Ring().Build(r)
				if err != nil {
					b.Fatal(err)
				}
				states = m.NumStates()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(states)*float64(b.N)/secs, "states/sec")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// The parallel packed-BFS construction engine and the symmetry quotients
// (DESIGN.md §7).  BenchmarkParallelBuild is the successor series to
// BenchmarkStateExplosionBuild: the same labelled ring instances at the
// same sizes, built by the level-synchronised engine, so the two series
// compare directly.  (Labelled throughput in states/sec necessarily falls
// as r grows — every state carries ~r indexed propositions, so the label
// work per state is itself linear in r; the raw packed series below is the
// size-independent measure of the construction engine.)
// BenchmarkPackedExplore times the raw-space regime the big sweep sizes
// use (codes + CSR transitions, no labels) up to the million-state r = 16.
// The r = 18 and r = 20 spaces are built by the sweep
// (cmd/experiments -sweep default), not benchmarked here: a 4.7M/21M-state
// construction is a one-shot multi-minute run, too slow to repeat under
// benchtime and page-fault-bound rather than engine-bound (DESIGN.md §7).
// ---------------------------------------------------------------------------

func BenchmarkParallelBuild(b *testing.B) {
	for _, r := range []int{4, 8, 12, 14} {
		r := r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				m, _, err := family.BuildParallel(context.Background(), family.Ring(), r, 0)
				if err != nil {
					b.Fatal(err)
				}
				states = m.NumStates()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(states)*float64(b.N)/secs, "states/sec")
			}
		})
	}
}

func BenchmarkPackedExplore(b *testing.B) {
	for _, r := range []int{4, 8, 12, 16} {
		r := r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				sp, err := explore.Explore(context.Background(), ring.PackedDef(r), explore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				states = sp.NumStates()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(states)*float64(b.N)/secs, "states/sec")
			}
		})
	}
}

func BenchmarkSymmetryQuotient(b *testing.B) {
	// The r = 12 ring: 49 152 states collapse to 4 096 orbit
	// representatives under the cyclic rotation group, explored over the
	// group's QuotientDef with one worker.
	const r = 12
	pi, ok := family.Packed(family.Ring(), r)
	if !ok {
		b.Fatal("the ring does not pack")
	}
	def := symmetry.QuotientDef(pi.Def, pi.Group)
	b.ReportAllocs()
	reps := 0
	for i := 0; i < b.N; i++ {
		sp, err := explore.Explore(context.Background(), def, explore.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		reps = sp.NumStates()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(reps)*float64(b.N)/secs, "orbits/sec")
	}
}

func BenchmarkParameterizedRoute(b *testing.B) {
	// The cost that does not grow with the ring size: model check the cutoff
	// instance and validate the Appendix-style local checks at a huge ring.
	cutoff, err := ring.Build(ring.CutoffSize)
	if err != nil {
		b.Fatal(err)
	}
	props := ring.Properties()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker := mc.New(cutoff.M)
		for _, p := range props {
			if _, err := checker.Holds(context.Background(), p.Formula); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCorrespondenceM3ToMr(b *testing.B) {
	ctx := context.Background()
	small, smallAction := ringWithAction(b, ring.CutoffSize)
	in := func(r int) []bisim.IndexPair { return ring.CutoffIndexRelation(ring.CutoffSize, r) }
	decide := func(b *testing.B, large *kripke.Structure, r int, opts bisim.Options) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := bisim.IndexedCompute(ctx, small, large, in(r), opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Corresponds() {
				b.Fatal("cutoff correspondence unexpectedly fails")
			}
		}
	}
	// The workers dimension sizes only IndexedCompute's index-pair pool
	// (capped at GOMAXPROCS); every pair decision is one sequential Compute
	// at any worker count, so workers=8 measures the pool's overlap of the
	// pair decisions against workers=1.  The orbit dimension passes both
	// instances' verified rotation actions, so one Compute decides every
	// pair and the rest is transport; the actions are built outside the
	// timer, as a session builds each once per instance.
	for _, r := range []int{4, 6, 8, 12} {
		large, largeAction := ringWithAction(b, r)
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("r=%d/workers=%d", r, workers), func(b *testing.B) {
				decide(b, large, r, bisim.Options{OneProps: []string{ring.PropToken}, ReachableOnly: true, Workers: workers})
			})
		}
		if r < 8 {
			continue
		}
		b.Run(fmt.Sprintf("r=%d/orbit", r), func(b *testing.B) {
			decide(b, large, r, bisim.Options{OneProps: []string{ring.PropToken}, ReachableOnly: true, Workers: 1,
				LeftAction: smallAction, RightAction: largeAction})
		})
	}
}

// ringWithAction builds the ring M_r through the packed explorer, which
// keeps the space, and returns it with its verified rotation action.
func ringWithAction(b *testing.B, r int) (*kripke.Structure, *kripke.IndexAction) {
	ctx := context.Background()
	m, sp, err := family.BuildParallel(ctx, family.Ring(), r, 1)
	if err != nil {
		b.Fatal(err)
	}
	pi, _ := family.Packed(family.Ring(), r)
	a, err := pi.IndexAction(ctx, sp, m)
	if err != nil {
		b.Fatal(err)
	}
	return m, a
}

// ---------------------------------------------------------------------------
// Engine micro-benchmarks (ablation-style measurements of the design
// choices called out in DESIGN.md).
// ---------------------------------------------------------------------------

func BenchmarkCTLLabelling(b *testing.B) {
	inst, err := ring.Build(8)
	if err != nil {
		b.Fatal(err)
	}
	formula := logic.MustParse("forall i . AG(d[i] -> AF c[i])")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker := mc.New(inst.M)
		if _, err := checker.Holds(context.Background(), formula); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCTLStarTableau(b *testing.B) {
	inst, err := ring.Build(6)
	if err != nil {
		b.Fatal(err)
	}
	// A genuine CTL* formula (not CTL-shaped): along some path process 1 is
	// delayed infinitely often and critical infinitely often.
	formula := logic.MustParse("E ((G (F d[1])) & (G (F c[1])))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker := mc.New(inst.M)
		if _, err := checker.Holds(context.Background(), formula); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaximalCorrespondence(b *testing.B) {
	left, right, err := paperfig.Fig31()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bisim.Compute(context.Background(), left, right, bisim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRefinedVsFixpoint is the ablation behind the refinement
// engine (DESIGN.md §2): the same maximal-correspondence query answered by
// the partition-refinement engine (Compute) and by the original
// nested-fixpoint oracle (ComputeFixpoint), on the reductions the cutoff
// correspondence actually compares.
func BenchmarkEngineRefinedVsFixpoint(b *testing.B) {
	small, err := ring.Build(ring.CutoffSize)
	if err != nil {
		b.Fatal(err)
	}
	opts := bisim.Options{OneProps: []string{ring.PropToken}, ReachableOnly: true}
	for _, r := range []int{4, 6, 8} {
		large, err := ring.Build(r)
		if err != nil {
			b.Fatal(err)
		}
		left := small.M.ReduceNormalized(1)
		right := large.M.ReduceNormalized(1)
		b.Run(fmt.Sprintf("refined/r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bisim.Compute(context.Background(), left, right, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fixpoint/r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bisim.ComputeFixpoint(context.Background(), left, right, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRelationCheck(b *testing.B) {
	small, err := ring.Build(2)
	if err != nil {
		b.Fatal(err)
	}
	large, err := ring.Build(6)
	if err != nil {
		b.Fatal(err)
	}
	rel := ring.BuildRelation(ring.CorrectedRelation, small, large, 1, 1)
	redSmall := small.M.ReduceNormalized(1)
	redLarge := large.M.ReduceNormalized(1)
	opts := bisim.Options{OneProps: []string{ring.PropToken}, ReachableOnly: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bisim.Check(redSmall, redLarge, rel, opts)
	}
}

func BenchmarkLocalCheckerPerState(b *testing.B) {
	small, err := ring.Build(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{100, 1000} {
		r := r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			lc, err := ring.NewLocalChecker(CorrectedOrPaper(), small, r)
			if err != nil {
				b.Fatal(err)
			}
			state := ring.NewGlobalState(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lc.CheckState(state, 1, 1)
			}
		})
	}
}

// CorrectedOrPaper exists so the benchmark reads naturally; the corrected
// variant is the interesting one to time (same complexity as the paper's).
func CorrectedOrPaper() ring.RelationVariant { return ring.CorrectedRelation }

func BenchmarkFormulaParse(b *testing.B) {
	const text = "!(exists i . EF(!d[i] & !t[i] & E[!d[i] U t[i]]))"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := logic.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstantiate(b *testing.B) {
	f := logic.MustParse("forall i . AG(d[i] -> AF c[i])")
	indices := make([]int, 50)
	for i := range indices {
		indices[i] = i + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := logic.Instantiate(f, indices); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingSuccessors(b *testing.B) {
	state := ring.NewGlobalState(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		state.Successors()
	}
}

func BenchmarkMinimizeStutteredStructure(b *testing.B) {
	left, right, err := paperfig.Fig31()
	if err != nil {
		b.Fatal(err)
	}
	_ = left
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bisim.Minimize(context.Background(), right, bisim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// The verdict store.  The full-range sweep (r=4..14, every topology) cold
// and replayed from a populated verdict store.  The replay benchmark is the
// acceptance number for the persistent store: a second full battery must be
// pure cache replay plus revalidation, several times faster than deciding
// cold.
// ---------------------------------------------------------------------------

// sweepFullRange drives one full sweep over every topology's valid sizes in
// [4, 14] and returns (rows decided, rows replayed from the store).
func sweepFullRange(b *testing.B, r experiments.Runner) (decided, replayed int) {
	b.Helper()
	for _, topo := range family.Topologies() {
		sizes := family.ValidSizesIn(topo, 4, 14)
		if len(sizes) == 0 {
			continue
		}
		for row := range r.TopologySweep(context.Background(), topo, sizes) {
			if row.Err != nil {
				b.Fatalf("%s n=%d: %v", row.Topology, row.R, row.Err)
			}
			if row.CacheHit {
				replayed++
			} else {
				decided++
			}
		}
	}
	return decided, replayed
}

func BenchmarkSweepFullRangeCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decided, _ := sweepFullRange(b, experiments.Runner{})
		if decided == 0 {
			b.Fatal("cold sweep decided nothing")
		}
	}
}

func BenchmarkSweepFullRangeReplay(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	// Populate the store once, outside the timer: the timed iterations are
	// the second full-battery runs, which must be pure replay.
	if decided, _ := sweepFullRange(b, experiments.Runner{Store: st}); decided == 0 {
		b.Fatal("populating sweep decided nothing")
	}
	before := bisim.ComputeCalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decided, replayed := sweepFullRange(b, experiments.Runner{Store: st})
		if decided != 0 || replayed == 0 {
			b.Fatalf("replay sweep decided %d rows cold (replayed %d): the store missed", decided, replayed)
		}
	}
	b.StopTimer()
	if delta := bisim.ComputeCalls() - before; delta != 0 {
		b.Fatalf("replay iterations ran %d refinement computations, want 0", delta)
	}
}
