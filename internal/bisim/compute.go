package bisim

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/kripke"
)

// cancelled polls ctx without blocking.  The engines call it at pass
// boundaries — outer pruning rounds, degree rounds, splitter-queue batches —
// so a cancelled or expired context stops a running computation promptly
// while the innermost loops stay free of per-iteration overhead.
func cancelled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// This file computes the *maximal* correspondence between two structures and
// the minimal degree of every related pair.  The paper defines the relation
// but notes that the definition is not constructive; the companion paper
// (Browne, Clarke, Grumberg 1987, "Characterizing Kripke structures in
// temporal logic") gives an algorithm.  We implement it as two nested
// fixpoints:
//
//   - outer greatest fixpoint over the candidate pair set R, initialised to
//     all label-equal pairs, from which pairs without a finite degree are
//     repeatedly removed;
//   - inner least fixpoint assigning minimal degrees: degree 0 is an exact
//     match with respect to R; degree m is the least m for which clauses 2b
//     and 2c hold when "strictly smaller degree" references pairs of degree
//     < m and "matched move" references any pair of R.
//
// As proved after the definition in Section 3, the minimal degree of any
// corresponding pair is bounded by |S| + |S'|, which bounds the inner
// iteration.

// Result is the outcome of Compute.
type Result struct {
	// Relation is the maximal correspondence: every pair that can be part of
	// some correspondence relation, with its minimal degree.
	Relation *Relation
	// InitialRelated reports whether the two initial states are related
	// (clause 1).
	InitialRelated bool
	// TotalLeft / TotalRight report whether every (reachable, if the option
	// is set) state of the first / second structure is related to something.
	TotalLeft  bool
	TotalRight bool
	// OuterIterations and DegreeRounds are work counters for the experiment
	// harness.  For the refinement engine OuterIterations counts the
	// refinement/divergence passes plus the final pruning rounds; for the
	// nested-fixpoint oracle it counts the outer pruning rounds alone.
	OuterIterations int
	DegreeRounds    int
}

// Corresponds reports whether the two structures correspond in the sense of
// the paper: initial states related and the relation total on both state
// sets.  When it returns true, Theorem 2 guarantees that the structures
// satisfy the same CTL* (no nexttime) formulas built from the compared
// propositions.
func (r *Result) Corresponds() bool {
	return r != nil && r.InitialRelated && r.TotalLeft && r.TotalRight
}

// Compute returns the maximal correspondence between m and m2 under opts.
// The computation honours ctx: a cancelled or expired context makes Compute
// return promptly with ctx's error.
//
// Two engines implement the decision procedure behind this API.  The
// default is the partition-refinement engine of refine.go, which refines an
// initial label partition of the disjoint union with a splitter queue
// instead of pruning label-equal state pairs, and is asymptotically far
// cheaper on structures with many states per label class.  Setting
// Options.MaxDegreeRounds selects the original nested-fixpoint procedure
// (ComputeFixpoint), which is the only engine whose semantics depend on
// that bound.  Both produce identical relations and minimal degrees; the
// differential tests in refine_test.go assert it.
func Compute(ctx context.Context, m, m2 *kripke.Structure, opts Options) (*Result, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	if n == 0 || n2 == 0 {
		return nil, fmt.Errorf("bisim: Compute: structures must be non-empty (got %d and %d states)", n, n2)
	}
	computeCalls.Add(1)
	if opts.MaxDegreeRounds > 0 {
		return computeFixpoint(ctx, m, m2, opts)
	}
	return computeRefined(ctx, m, m2, opts)
}

// computeCalls counts every Compute invocation process-wide.  Store replays
// never reach this package, so the delta across an operation is the number
// of decisions that actually ran an engine — which is what the cache tests
// assert goes to zero on a second run against a populated verdict store.
var computeCalls atomic.Int64

// ComputeCalls returns the process-wide number of Compute invocations so
// far.
func ComputeCalls() int64 { return computeCalls.Load() }

// RefineBatches always returns 0.  It counted the splitter-queue batches of
// a batched parallel drain that no longer exists; the refinement engine
// pops one splitter at a time at every worker count.  It stays only because
// the benchmark harness and the podc_engine_refine_batches_total metric
// read it, until per-request engine counters replace the process-global
// ones.
func RefineBatches() int64 { return 0 }

// ComputeFixpoint runs the original nested-fixpoint decision procedure on
// the label-equal candidate pair set.  It is retained as the cross-check
// oracle for the partition-refinement engine and as the engine honouring
// Options.MaxDegreeRounds; new callers should use Compute.
func ComputeFixpoint(ctx context.Context, m, m2 *kripke.Structure, opts Options) (*Result, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	if n == 0 || n2 == 0 {
		return nil, fmt.Errorf("bisim: Compute: structures must be non-empty (got %d and %d states)", n, n2)
	}
	return computeFixpoint(ctx, m, m2, opts)
}

func computeFixpoint(ctx context.Context, m, m2 *kripke.Structure, opts Options) (*Result, error) {
	n, n2 := m.NumStates(), m2.NumStates()

	// Candidate relation: label-equal pairs.
	leftKeys := make([]string, n)
	for s := 0; s < n; s++ {
		leftKeys[s] = opts.labelOf(m, kripke.State(s))
	}
	rightKeys := make([]string, n2)
	for t := 0; t < n2; t++ {
		rightKeys[t] = opts.labelOf(m2, kripke.State(t))
	}
	inR := make([]bool, n*n2)
	for s := 0; s < n; s++ {
		base := s * n2
		for t := 0; t < n2; t++ {
			if leftKeys[s] == rightKeys[t] {
				inR[base+t] = true
			}
		}
	}
	return pruneAndFinish(ctx, m, m2, inR, opts, &Result{}, computeDegrees)
}

// degreesFunc assigns minimal degrees for the pairs of inR; computeDegrees
// is the reference implementation, computeDegreesFast (refine.go) the
// worklist-scheduled one the refinement engine uses.  Both poll ctx once per
// degree round and report its error when cancelled.
type degreesFunc func(ctx context.Context, m, m2 *kripke.Structure, inR []bool, deg []int, maxRounds int) (int, error)

// pruneAndFinish is the tail shared by both engines: starting from the
// candidate set inR it repeatedly assigns minimal degrees and removes pairs
// without a finite degree until the set is stable (the greatest fixpoint),
// then packages the relation, the initial-state verdict and the totality
// flags.  The nested-fixpoint engine seeds it with every label-equal pair;
// the refinement engine seeds it with the (normally already stable) pairs
// read off the refined partition, so the loop body runs exactly once there.
func pruneAndFinish(ctx context.Context, m, m2 *kripke.Structure, inR []bool, opts Options, res *Result, degrees degreesFunc) (*Result, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	maxRounds := opts.MaxDegreeRounds
	if maxRounds <= 0 {
		// The paper bounds the minimal degree by |S| + |S'|; we allow up to
		// |S| * |S'| rounds to stay safe (the iteration stops as soon as a
		// round makes no progress, so the generous bound costs nothing).
		maxRounds = n*n2 + 1
	}

	deg := make([]int, n*n2)
	for {
		if err := cancelled(ctx); err != nil {
			return nil, err
		}
		res.OuterIterations++
		rounds, err := degrees(ctx, m, m2, inR, deg, maxRounds)
		res.DegreeRounds += rounds
		if err != nil {
			return nil, err
		}
		removed := false
		for i, ok := range inR {
			if ok && deg[i] == InfiniteDegree {
				inR[i] = false
				removed = true
			}
		}
		if !removed {
			break
		}
	}

	return finishResult(m, m2, inR, deg, opts, res)
}

// finishResult packages a stable candidate set and its degrees into a
// Result: the explicit relation, the clause-1 verdict on the initial states
// and the totality flags.
func finishResult(m, m2 *kripke.Structure, inR []bool, deg []int, opts Options, res *Result) (*Result, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	rel, cursor := newRelationRows(n, n2, func(s int) int {
		count := 0
		for _, ok := range inR[s*n2 : (s+1)*n2] {
			if ok {
				count++
			}
		}
		return count
	})
	for s := 0; s < n; s++ {
		for t := 0; t < n2; t++ {
			if i := s*n2 + t; inR[i] {
				rel.cols[cursor[s]], rel.degs[cursor[s]] = int32(t), int32(deg[i])
				cursor[s]++
			}
		}
	}
	res.Relation = rel
	_, res.InitialRelated = rel.Degree(m.Initial(), m2.Initial())
	res.TotalLeft, res.TotalRight = totality(m, m2, rel, opts)
	return res, nil
}

// Correspond is a convenience wrapper: it computes the maximal
// correspondence and reports whether the structures correspond.
func Correspond(ctx context.Context, m, m2 *kripke.Structure, opts Options) (bool, error) {
	res, err := Compute(ctx, m, m2, opts)
	if err != nil {
		return false, err
	}
	return res.Corresponds(), nil
}

func totality(m, m2 *kripke.Structure, rel *Relation, opts Options) (left, right bool) {
	leftCovered, rightCovered := rel.coverage()
	return allInScope(m, opts, leftCovered.Get), allInScope(m2, opts, rightCovered.Get)
}

// eachInScope calls fn, in increasing order, on every state of m that
// totality must cover: all of them, or under ReachableOnly only those in
// m's shared reachable set.  fn returning false stops the iteration.
func eachInScope(m *kripke.Structure, opts Options, fn func(s int) bool) {
	if opts.ReachableOnly {
		m.Reachable().ForEach(fn)
		return
	}
	for s := 0; s < m.NumStates(); s++ {
		if !fn(s) {
			return
		}
	}
}

// allInScope reports whether covered holds for every state of m in scope.
func allInScope(m *kripke.Structure, opts Options, covered func(s int) bool) bool {
	all := true
	eachInScope(m, opts, func(s int) bool {
		all = covered(s)
		return all
	})
	return all
}

// computeDegrees assigns to deg the minimal degree of every pair of the
// candidate relation inR (InfiniteDegree if the pair has no finite degree),
// and returns the number of rounds used.
func computeDegrees(ctx context.Context, m, m2 *kripke.Structure, inR []bool, deg []int, maxRounds int) (int, error) {
	n2 := m2.NumStates()
	for i := range deg {
		deg[i] = InfiniteDegree
	}
	// Round 0: exact matches with respect to inR.
	var unresolved []int
	for i, ok := range inR {
		if !ok {
			continue
		}
		s := kripke.State(i / n2)
		t := kripke.State(i % n2)
		if exactMatch(m, m2, inR, n2, s, t) {
			deg[i] = 0
		} else {
			unresolved = append(unresolved, i)
		}
	}
	rounds := 1
	for len(unresolved) > 0 && rounds <= maxRounds {
		if err := cancelled(ctx); err != nil {
			return rounds, err
		}
		var still []int
		progressed := false
		for _, i := range unresolved {
			s := kripke.State(i / n2)
			t := kripke.State(i % n2)
			if degClause2b(m, m2, inR, deg, n2, s, t, rounds) && degClause2c(m, m2, inR, deg, n2, s, t, rounds) {
				deg[i] = rounds
				progressed = true
			} else {
				still = append(still, i)
			}
		}
		unresolved = still
		if !progressed {
			break
		}
		rounds++
	}
	return rounds, nil
}

func exactMatch(m, m2 *kripke.Structure, inR []bool, n2 int, s, t kripke.State) bool {
	for _, s1 := range m.Succ(s) {
		matched := false
		for _, t1 := range m2.Succ(t) {
			if inR[int(s1)*n2+int(t1)] {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	for _, t1 := range m2.Succ(t) {
		matched := false
		for _, s1 := range m.Succ(s) {
			if inR[int(s1)*n2+int(t1)] {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// degClause2b mirrors clause2b of check.go but over the working arrays of
// the decision procedure: "strictly smaller degree" means an assigned degree
// < k, "matched move" means membership in the candidate relation.
func degClause2b(m, m2 *kripke.Structure, inR []bool, deg []int, n2 int, s, t kripke.State, k int) bool {
	for _, t1 := range m2.Succ(t) {
		if d := deg[int(s)*n2+int(t1)]; inR[int(s)*n2+int(t1)] && d != InfiniteDegree && d < k {
			return true
		}
	}
	for _, s1 := range m.Succ(s) {
		i := int(s1)*n2 + int(t)
		if inR[i] && deg[i] != InfiniteDegree && deg[i] < k {
			continue
		}
		matched := false
		for _, t1 := range m2.Succ(t) {
			if inR[int(s1)*n2+int(t1)] {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

func degClause2c(m, m2 *kripke.Structure, inR []bool, deg []int, n2 int, s, t kripke.State, k int) bool {
	for _, s1 := range m.Succ(s) {
		i := int(s1)*n2 + int(t)
		if inR[i] && deg[i] != InfiniteDegree && deg[i] < k {
			return true
		}
	}
	for _, t1 := range m2.Succ(t) {
		i := int(s)*n2 + int(t1)
		if inR[i] && deg[i] != InfiniteDegree && deg[i] < k {
			continue
		}
		matched := false
		for _, s1 := range m.Succ(s) {
			if inR[int(s1)*n2+int(t1)] {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}
