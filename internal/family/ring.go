package family

import (
	"fmt"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/ring"
	"repro/internal/symmetry"
)

// ringTopology adapts the hand-built Section 5 case study of internal/ring
// to the Topology interface, making the paper's own family one instance of
// the topology-parametric machinery rather than its only client.
type ringTopology struct{}

// Ring returns the token-ring family of Section 5: the request/grant
// protocol of internal/ring with its corrected three-process cutoff and
// the cutoff index relation established by the reproduction.
func Ring() Topology { return ringTopology{} }

// Name implements Topology.
func (ringTopology) Name() string { return "ring" }

// MinSize implements Topology.
func (ringTopology) MinSize() int { return 2 }

// CutoffSize implements Topology: the corrected cutoff of the
// reproduction (the paper's two-process claim is refuted; see
// internal/ring/correspond.go).
func (ringTopology) CutoffSize() int { return ring.CutoffSize }

// ValidSize implements Topology: every size from two up exists, though
// Packed refuses sizes beyond the explicit-construction budget.
func (ringTopology) ValidSize(n int) error {
	if n < 2 {
		return fmt.Errorf("ring topology needs at least 2 processes, got %d", n)
	}
	return nil
}

// Build implements Topology: the reachable restriction M_r of the Section 5
// global graph.
func (t ringTopology) Build(n int) (*kripke.Structure, error) { return build(t, n) }

// Packed implements Topology: the ring's packed-code definition (two bits
// per process) with the rotation group C_n — rotations are automorphisms
// of the Section 5 protocol because every rule is defined relative to ring
// distance (cln is rotation-equivariant).  Rings past the 31 processes the
// packing serves get ring.CheckSize's refusal, as from ring.Build; rings
// of 17..31 carry it as TooLarge, so sweeps can still explore them.
func (t ringTopology) Packed(n int) (PackedInstance, error) {
	if err := t.ValidSize(n); err != nil {
		return PackedInstance{}, fmt.Errorf("family: %w", err)
	}
	if n > 31 {
		return PackedInstance{}, ring.CheckSize(n)
	}
	return PackedInstance{
		Def:       ring.PackedDef(n),
		Group:     symmetry.Cyclic(n, 2),
		Validate:  true,
		MaxStates: ring.MaxExplicitStates,
		TooLarge:  ring.CheckSize(n),
	}, nil
}

// IndexRelation implements Topology: the paper's Section 5 relation for
// small = 2 (the claim under refutation) and the corrected cutoff relation
// otherwise.
func (ringTopology) IndexRelation(small, n int) []bisim.IndexPair {
	if small == 2 {
		return ring.IndexRelation(small, n)
	}
	return ring.CutoffIndexRelation(small, n)
}

// Atoms implements Topology: O_i t_i is part of the Section 5 vocabulary.
func (ringTopology) Atoms() []string { return []string{ring.PropToken} }

// Specs implements Topology: the Section 5 invariants and the four
// correctness properties.
func (ringTopology) Specs() []Spec {
	var out []Spec
	for _, nf := range append(ring.Invariants(), ring.Properties()...) {
		out = append(out, Spec{Name: nf.Name, Source: nf.Source, Formula: nf.Formula})
	}
	return out
}
