package podc

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/family"
	"repro/internal/ring"
)

// This file exposes the paper's Section 5 case study — the token-ring
// mutual-exclusion protocol — through the public API: building instances,
// the Section 5 specifications, the canonical correspondences, and the
// "local" clause checker that refutes the Appendix relation at rings far
// too large to construct explicitly.

// RingCutoffSize is the smallest ring that represents all larger rings.
// The reproduction shows that the paper's cutoff of two processes is too
// small (RingDistinguishingFormula separates M_2 from every larger ring)
// and that three processes suffice for every size the decision procedure
// can reach.
const RingCutoffSize = ring.CutoffSize

// RingTokenAtom is the indexed proposition marking the token holder; ring
// correspondences are decided with WithAtoms(RingTokenAtom) so that
// "exactly one process holds the token" is part of the compared vocabulary.
const RingTokenAtom = ring.PropToken

// ErrTooLarge marks build refusals for instances whose state space exceeds
// the explicit-construction limit (test with errors.Is).  Such requests can
// never succeed — that regime is exactly what the correspondence theorem
// and RingLocalCheck exist for — so services should report them as client
// errors, not server failures.
var ErrTooLarge error = ring.ErrTooLarge

// Ring is a fully built instance M_r of the token-ring protocol: the
// Kripke structure (the reachable restriction of the global transition
// graph G_r) plus ring-level metadata.
type Ring struct {
	inst *ring.Instance
}

// BuildRing constructs M_r explicitly.  It refuses sizes whose reachable
// state space (r·2^r states) exceeds the explicit-construction budget —
// which is exactly the situation the correspondence theorem is for.
func BuildRing(r int) (*Ring, error) {
	inst, err := ring.Build(r)
	if err != nil {
		return nil, err
	}
	return &Ring{inst: inst}, nil
}

// BuildBuggyRing constructs the deliberately broken protocol variant used
// to demonstrate counterexample extraction.
func BuildBuggyRing(r int) (*Ring, error) {
	inst, err := ring.BuildBuggy(r)
	if err != nil {
		return nil, err
	}
	return &Ring{inst: inst}, nil
}

// Size returns the number of processes.
func (r *Ring) Size() int { return r.inst.R }

// Structure returns the Kripke structure M_r.
func (r *Ring) Structure() *Structure { return wrapStructure(r.inst.M) }

// CheckPartitionInvariant verifies structurally (without model checking)
// that every reachable state partitions the processes into the paper's
// D/N/T/C parts with exactly one token holder.
func (r *Ring) CheckPartitionInvariant() error { return r.inst.CheckPartitionInvariant() }

// RingInvariants returns the Section 5 invariants (I1..I4) as specs.
func RingInvariants() []Spec { return namedFormulasToSpecs(ring.Invariants()) }

// RingProperties returns the four Section 5 correctness properties
// (mutual exclusion, token-based entry, stable requests, liveness).
func RingProperties() []Spec { return namedFormulasToSpecs(ring.Properties()) }

func namedFormulasToSpecs(nfs []ring.NamedFormula) []Spec {
	out := make([]Spec, len(nfs))
	for i, nf := range nfs {
		out[i] = Spec{Name: nf.Name, Formula: wrapFormula(nf.Formula)}
	}
	return out
}

// RingDistinguishingFormula returns the closed *restricted* ICTL* formula
// of the reproduction finding,
//
//	∨i EF( d_i ∧ E[ d_i U (c_i ∧ ¬E[c_i U (t_i ∧ n_i)]) ] )
//
// which is false in M_2 but true in every M_r with r ≥ 3 — proving, via
// Theorem 5, that the paper's two-process cutoff claim cannot hold and a
// three-process cutoff is needed.
func RingDistinguishingFormula() Formula { return wrapFormula(ring.DistinguishingFormula()) }

// RingCorrespondence decides the indexed correspondence between two
// explicitly built ring instances (correct or buggy, of any size BuildRing
// accepts) with the canonical IN relation and vocabulary ("exactly one
// token", totality over reachable states).  When they do not correspond,
// the result's Evidence is the replay-confirmed distinguishing evidence,
// extracted from the same decision.
func RingCorrespondence(ctx context.Context, small, large *Ring) (*IndexedCorrespondence, error) {
	if small == nil || large == nil {
		return nil, fmt.Errorf("podc: RingCorrespondence: nil ring instance")
	}
	res, err := ring.DecideCorrespondence(ctx, small.inst, large.inst)
	if err != nil {
		return nil, err
	}
	fev, err := family.ExplainBuilt(ctx, family.Ring(), small.inst.M, small.Size(), large.inst.M, large.Size(), res)
	if err != nil {
		return nil, err
	}
	return &IndexedCorrespondence{
		res: res,
		in:  indexPairsFromRaw(ring.IndexRelationFor(small.Size(), large.Size())),
		ev:  evidenceFromFamily(fev),
	}, nil
}

// RingRelationVariant selects which printed Section 5 relation the local
// checker validates.
type RingRelationVariant int

const (
	// RingPaperRelation is the relation exactly as printed in Section 5.
	RingPaperRelation RingRelationVariant = iota
	// RingCorrectedRelation strengthens the side condition to all token
	// holders, repairing the Appendix's case 2(b) gap (but not the cutoff
	// claim itself).
	RingCorrectedRelation
)

// String names the variant.
func (v RingRelationVariant) String() string { return v.raw().String() }

func (v RingRelationVariant) raw() ring.RelationVariant {
	if v == RingCorrectedRelation {
		return ring.CorrectedRelation
	}
	return ring.PaperRelation
}

// RingLocalCheckReport summarises a local clause-checking run: the Section 5
// relation validated clause by clause at sampled states of an r-process
// ring whose state graph (r·2^r states) is never built.
type RingLocalCheckReport struct {
	// Variant names the relation variant checked.
	Variant string `json:"variant"`
	// RingSize is the number of processes of the virtual large ring.
	RingSize int `json:"ring_size"`
	// SampledStates is the number of reachable states sampled.
	SampledStates int `json:"sampled_states"`
	// PairsChecked counts the (state, index pair) clause checks performed.
	PairsChecked int `json:"pairs_checked"`
	// Violations counts the clause violations found; any positive count
	// machine-refutes the relation at this ring size.
	Violations int `json:"violations"`
	// FirstViolation describes one violation (empty when none were found).
	FirstViolation string `json:"first_violation,omitempty"`
}

// RingLocalCheck validates the chosen variant of the Section 5 relation
// between M_2 and the r-process ring at sampled reachable states, without
// ever materialising the large ring.  Sampling is deterministic in seed.
// Cancelling ctx aborts the sweep between samples.
func RingLocalCheck(ctx context.Context, variant RingRelationVariant, ringSize, samples int, seed int64) (*RingLocalCheckReport, error) {
	if samples <= 0 {
		samples = 25
	}
	small, err := ring.Build(2)
	if err != nil {
		return nil, err
	}
	lc, err := ring.NewLocalChecker(variant.raw(), small, ringSize)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	next := func(n int) int { return rng.Intn(n) }
	// The known failure shapes first (a token holder with everyone queued
	// behind it), then random samples: purely random states rarely hit the
	// Appendix's case-2(b) gap, so a refutation sweep that skipped these
	// would under-report.
	states := craftedRingStates(ringSize)
	for len(states) < samples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		states = append(states, ring.RandomReachableState(ringSize, next))
	}
	rep := &RingLocalCheckReport{Variant: variant.String(), RingSize: ringSize, SampledStates: len(states)}
	for _, g := range states {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		for _, pair := range [][2]int{{1, 1}, {2, 2 + next(ringSize-1)}} {
			vs := lc.CheckState(g, pair[0], pair[1])
			rep.PairsChecked++
			rep.Violations += len(vs)
			if len(vs) > 0 && rep.FirstViolation == "" {
				rep.FirstViolation = vs[0].Error()
			}
		}
	}
	return rep, nil
}

// craftedRingStates returns the reachable states at which the printed
// Section 5 relation is known to break: the initial holder with every other
// process delayed, and a holder with delayed processes queued behind it.
func craftedRingStates(r int) []ring.GlobalState {
	if r < 3 {
		return nil
	}
	allDelayed := ring.GlobalState{Parts: make([]ring.Part, r)}
	allDelayed.Parts[0] = ring.Token
	for i := 1; i < r; i++ {
		allDelayed.Parts[i] = ring.Delayed
	}
	queued := ring.GlobalState{Parts: make([]ring.Part, r)}
	queued.Parts[1] = ring.Token
	queued.Parts[0] = ring.Delayed
	queued.Parts[2] = ring.Delayed
	return []ring.GlobalState{allDelayed, queued}
}
