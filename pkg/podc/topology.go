package podc

import "repro/internal/family"

// This file surfaces the topology-parametric family engine of
// internal/family: the paper's verify-small / correspond / transfer-by-
// Theorem-5 methodology for star, line, binary-tree and 2D-torus families
// in addition to the Section 5 token ring.  A Topology bundles everything
// the methodology needs — an instance generator, the inductive index
// relation, the cutoff heuristic, the vocabulary and the specifications —
// and the Session methods (Instance, Verifier, Correspondence,
// TransferCertificate, SweepTopology) take the family to work on as their
// first argument.

// Topology is one parameterized family of networks of identical processes:
// the token ring of Section 5, or one of the generalised
// token-circulation families (star, line, tree, torus).
type Topology struct {
	t family.Topology
}

// RingTopology returns the paper's Section 5 token ring (the request/grant
// protocol with its corrected three-process cutoff).
func RingTopology() Topology { return Topology{t: family.Ring()} }

// StarTopology returns the star family: process 1 is the hub, all other
// processes are leaves, and the token shuttles hub → leaf → hub.
func StarTopology() Topology { return Topology{t: family.Star()} }

// LineTopology returns the line (open chain) family: the token wanders
// along a path whose two ends are distinguished.
func LineTopology() Topology { return Topology{t: family.Line()} }

// TreeTopology returns the binary-tree family: processes in heap order,
// the token wandering along tree edges from the root.
func TreeTopology() Topology { return Topology{t: family.Tree()} }

// TorusTopology returns the 2D-torus family: n processes on a 2 × (n/2)
// torus, so only even sizes are valid.
func TorusTopology() Topology { return Topology{t: family.Torus()} }

// Torus3Topology returns the 3-row 2D-torus family: n processes on a
// 3 × (n/3) torus, so only multiples of three are valid.  Its n = 12
// instance is the 3×4 torus of the default sweep.
func Torus3Topology() Topology { return Topology{t: family.Torus3()} }

// DefaultSweepSizes returns the sizes the default sweep covers — up to the
// 21-million-state r = 20 ring.  Sizes whose state spaces fit the decide
// budget (the r = 14 ring and below) decide the cutoff correspondence;
// larger sizes come back as build-only rows, with the raw space explored by
// the parallel packed-BFS engine, the reachable set checked for orbit
// closure and the symmetry quotient's orbit count reported — so the sweep
// still finishes within a CI-friendly budget.  Sizes a topology cannot
// instantiate are skipped per topology, as with any sweep.
func DefaultSweepSizes() []int { return []int{4, 6, 8, 10, 12, 14, 16, 18, 20} }

// Topologies returns every built-in topology, the ring first.
func Topologies() []Topology {
	raw := family.Topologies()
	out := make([]Topology, len(raw))
	for i, t := range raw {
		out[i] = Topology{t: t}
	}
	return out
}

// TopologyNames returns the names of the built-in topologies, in
// Topologies order.
func TopologyNames() []string { return family.Names() }

// TopologyByName resolves a built-in topology by its name ("ring",
// "star", "line", "tree", "torus", "torus3").
func TopologyByName(name string) (Topology, bool) {
	t, ok := family.ByName(name)
	if !ok {
		return Topology{}, false
	}
	return Topology{t: t}, true
}

// IsValid reports whether the topology was obtained from a constructor or
// a successful lookup (the zero Topology is invalid).
func (t Topology) IsValid() bool { return t.t != nil }

// Name returns the topology's name.
func (t Topology) Name() string {
	if t.t == nil {
		return ""
	}
	return t.t.Name()
}

// String returns the topology's name.
func (t Topology) String() string { return t.Name() }

// MinSize returns the smallest size for which an instance exists.
func (t Topology) MinSize() int { return t.t.MinSize() }

// CutoffSize returns the topology's small-size heuristic: the size of the
// instance that represents all larger instances (machine-checked for every
// size the decision procedure can reach).
func (t Topology) CutoffSize() int { return t.t.CutoffSize() }

// ValidSize reports whether an instance of size n exists (nil) or why not.
func (t Topology) ValidSize(n int) error { return t.t.ValidSize(n) }

// Atoms lists the indexed propositions whose "exactly one" atoms are part
// of the family's vocabulary.
func (t Topology) Atoms() []string { return append([]string(nil), t.t.Atoms()...) }

// Build constructs the instance M_n explicitly.
func (t Topology) Build(n int) (*Structure, error) {
	m, err := t.t.Build(n)
	if err != nil {
		return nil, err
	}
	return wrapStructure(m), nil
}

// IndexRelation returns the IN relation between the index sets of M_small
// and M_n — the topology's inductive step.
func (t Topology) IndexRelation(small, n int) []IndexPair {
	return indexPairsFromRaw(t.t.IndexRelation(small, n))
}

// Specs returns the family's ICTL* specifications, ready for VerifyFamily.
func (t Topology) Specs() []Spec {
	raw := t.t.Specs()
	out := make([]Spec, len(raw))
	for i, s := range raw {
		out[i] = Spec{Name: s.Name, Formula: wrapFormula(s.Formula)}
	}
	return out
}

// Family adapts the topology to the Family interface, so VerifyFamily and
// BuildTransferCertificate work with any topology.
func (t Topology) Family() Family {
	topo := t.t
	return &FamilyFunc{
		FamilyName: topo.Name(),
		BuildFunc: func(n int) (*Structure, error) {
			m, err := topo.Build(n)
			if err != nil {
				return nil, err
			}
			return wrapStructure(m), nil
		},
		Indices: func(small, n int) []IndexPair {
			return indexPairsFromRaw(topo.IndexRelation(small, n))
		},
		AtomNames: topo.Atoms(),
	}
}
