// Package family generalises the paper's parameterized-verification
// machinery from the token ring of Section 5 to arbitrary topologies of
// identical processes.
//
// The paper's method is topology-agnostic: model check a small instance of
// a family {M_n}, establish the indexed correspondence of Section 4 between
// the small instance and each larger one, and transfer every closed
// restricted ICTL* property by Theorem 5.  Only the Section 5 case study —
// and, historically, this repository — wired the method to one topology,
// the ring.  This package factors the topology-specific ingredients into
// the Topology interface:
//
//   - an instance generator (Build),
//   - the inductive step: the IN relation carrying the correspondence from
//     the small instance to size n (IndexRelation),
//   - the small-size heuristic (CutoffSize, MinSize, ValidSize), and
//   - the family's vocabulary and specifications (Atoms, Specs).
//
// Two kinds of implementation live here: ring.go adapts the hand-built
// Section 5 protocol of internal/ring, and token.go derives star, line,
// binary-tree and 2D-torus families from one token-circulation protocol
// expressed as internal/process guarded commands over each topology's
// neighbourhood function.  DecideCorrespondence is the shared entry point
// the experiment sweeps, the HTTP service and the public API dispatch
// through.
package family

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// Spec is one named ICTL* specification of a family, with its provenance.
type Spec struct {
	// Name is a stable identifier (used in report rows).
	Name string
	// Source records where the specification comes from (a paper section,
	// or "family" for the topology-generalised protocols).
	Source string
	// Formula is the specification itself.
	Formula logic.Formula
}

// Topology describes one parameterized family of networks {M_n} of
// identical processes: how instances are generated, how the inductive
// correspondence step is set up, and which sizes are meaningful.
type Topology interface {
	// Name identifies the topology ("ring", "star", "line", "tree",
	// "torus", "torus3").
	Name() string
	// MinSize is the smallest size for which an instance exists.
	MinSize() int
	// CutoffSize is the small-size heuristic: the size of the instance
	// believed (and, for every size the decision procedure can reach,
	// machine-checked) to represent all larger instances.
	CutoffSize() int
	// ValidSize reports whether an instance of size n exists (nil) or why
	// not (e.g. a 2-row torus needs an even number of processes).
	ValidSize(n int) error
	// Build constructs the instance M_n explicitly.  Implementations
	// return an error rather than exhausting memory for sizes beyond the
	// explicit-construction budget — the regime the correspondence theorem
	// exists for.
	Build(n int) (*kripke.Structure, error)
	// IndexRelation returns the IN relation between the index sets of the
	// small instance M_small and the instance M_n — the inductive step of
	// the correspondence argument.
	IndexRelation(small, n int) []bisim.IndexPair
	// Atoms lists the indexed propositions P whose "exactly one" atoms
	// O_i P_i (Section 4) are part of the family's vocabulary.
	Atoms() []string
	// Specs returns the family's ICTL* specifications.
	Specs() []Spec
}

// CorrespondOptions returns the bisim options under which a topology's
// correspondences are decided: the family's "exactly one" atoms are part of
// the compared vocabulary and totality is required over reachable states.
func CorrespondOptions(t Topology) bisim.Options {
	return bisim.Options{OneProps: t.Atoms(), ReachableOnly: true}
}

// DecideCorrespondence builds the topology's instances of the two sizes and
// decides their indexed correspondence over the topology's IN relation with
// the partition-refinement engine.  Cancelling ctx stops the worker pool
// promptly.
func DecideCorrespondence(ctx context.Context, t Topology, small, large int) (*bisim.IndexedResult, error) {
	sm, err := t.Build(small)
	if err != nil {
		return nil, fmt.Errorf("family: %s: building small instance: %w", t.Name(), err)
	}
	lg, err := t.Build(large)
	if err != nil {
		return nil, fmt.Errorf("family: %s: building large instance: %w", t.Name(), err)
	}
	return DecideBuilt(ctx, t, sm, small, lg, large, nil, nil)
}

// DecideBuilt decides the indexed correspondence between two already-built
// instances of the topology (sizes smallN and largeN), so callers with
// instance caches — the session layer, the sweeps — do not rebuild.
// smallAction and largeAction, when non-nil, are verified index actions
// on exactly those instances (see PackedInstance.IndexAction); with both,
// IndexedCompute decides one index pair per orbit class and transports
// its relation to the rest, with results identical to deciding every pair.
func DecideBuilt(ctx context.Context, t Topology, small *kripke.Structure, smallN int, large *kripke.Structure, largeN int, smallAction, largeAction *kripke.IndexAction) (*bisim.IndexedResult, error) {
	if err := t.ValidSize(smallN); err != nil {
		return nil, fmt.Errorf("family: %s: small size %d: %w", t.Name(), smallN, err)
	}
	if err := t.ValidSize(largeN); err != nil {
		return nil, fmt.Errorf("family: %s: large size %d: %w", t.Name(), largeN, err)
	}
	opts := CorrespondOptions(t)
	opts.LeftAction, opts.RightAction = smallAction, largeAction
	return bisim.IndexedCompute(ctx, small, large, t.IndexRelation(smallN, largeN), opts)
}

// Topologies returns every built-in topology, ring first, in a stable
// order.
func Topologies() []Topology {
	return []Topology{Ring(), Star(), Line(), Tree(), Torus(), Torus3()}
}

// Names returns the names of the built-in topologies, in Topologies order.
func Names() []string {
	ts := Topologies()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name()
	}
	return out
}

// ByName returns the built-in topology with the given name.
func ByName(name string) (Topology, bool) {
	for _, t := range Topologies() {
		if t.Name() == name {
			return t, true
		}
	}
	return nil, false
}

// foldedIndexRelation is the index relation shared by every topology whose
// first process is distinguished (it holds the token initially) and whose
// remaining processes are pairwise interchangeable from an observer's point
// of view: pair equal positions up to the small size, fold the large tail
// onto the last small index, and keep the relation total on the left by
// construction: {(1,1), ..., (small,small)} ∪ {(small, j) | j > small}.
// For small = 2 it is the paper's Section 5 relation.  It is not the
// ring's corrected cutoff relation (ring.CutoffIndexRelation): for
// small = 3 that one is {(1,1), (3,2..n), (2,n)}, pairing the small
// instance's middle index with the last large index, while this one is
// {(1,1), (2,2), (3,3..n)}.
func foldedIndexRelation(small, n int) []bisim.IndexPair {
	out := make([]bisim.IndexPair, 0, n+small)
	for i := 1; i <= small && i <= n; i++ {
		out = append(out, bisim.IndexPair{I: i, I2: i})
	}
	for j := small + 1; j <= n; j++ {
		out = append(out, bisim.IndexPair{I: small, I2: j})
	}
	return out
}

// sortedSizes returns the valid sizes for t in [lo, hi], sorted ascending.
// It is the helper sweeps use to skip sizes a topology cannot instantiate
// (e.g. odd sizes of the 2-row torus) without failing the whole sweep.
func sortedSizes(t Topology, lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n++ {
		if t.ValidSize(n) == nil {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// ValidSizesIn exposes sortedSizes: the sizes in [lo, hi] for which the
// topology can build an instance.
func ValidSizesIn(t Topology, lo, hi int) []int { return sortedSizes(t, lo, hi) }
