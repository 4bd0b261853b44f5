package family

import (
	"context"
	"fmt"

	"repro/internal/explore"
	"repro/internal/kripke"
	"repro/internal/symmetry"
)

// PackedInstance is a topology instance exposed intensionally to the
// parallel construction and symmetry engines: a packed-code definition of
// the state space plus the family's per-size metadata.
type PackedInstance struct {
	// Def is the packed-code state-space definition (see internal/explore).
	Def explore.Def
	// Group is the instance's automorphism group for symmetry quotients,
	// or nil when none is wired (e.g. mutated variants, whose rewritten
	// rules may break the process symmetry the group expresses).
	Group *symmetry.Group
	// MakeTotal completes deadlock states with self loops after building,
	// exactly as the topology's sequential Build does for broken variants.
	MakeTotal bool
	// Validate requires the built structure to be total, exactly as the
	// topology's sequential Build does (the ring validates; the token
	// families do not).
	Validate bool
	// MaxStates is the explicit-construction budget of the sequential
	// Build, honoured by the labelled parallel path so both refuse the
	// same sizes.
	MaxStates int
	// TooLarge, when non-nil, is the sequential Build's up-front refusal
	// of this size; BuildParallel returns it without exploring.
	TooLarge error
}

// Packable is the optional Topology extension providing packed
// definitions.  Both built-in topology implementations provide it;
// external implementations fall back to their sequential Build.
type Packable interface {
	// Packed returns the packed instance of size n, or ok == false when
	// the size is invalid or the instance does not pack into a word.
	Packed(n int) (PackedInstance, bool)
}

// Packed returns the topology's packed size-n instance, or ok == false
// when the topology does not support packed construction (or the size does
// not pack).
func Packed(t Topology, n int) (PackedInstance, bool) {
	p, ok := t.(Packable)
	if !ok {
		return PackedInstance{}, false
	}
	return p.Packed(n)
}

// FinishBuilt applies the packed instance's post-build steps (totality
// completion or validation) to a freshly built partial structure, exactly
// as the topology's sequential Build would.
func (pi PackedInstance) FinishBuilt(m *kripke.Structure) (*kripke.Structure, error) {
	if pi.MakeTotal {
		return m.MakeTotal(), nil
	}
	if pi.Validate {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("family: building %s: %w", pi.Def.Name, err)
		}
	}
	return m, nil
}

// BuildParallel constructs the topology's size-n instance through the
// parallel packed-BFS engine with the given worker count, byte-identical
// (kripke.EncodeText) to t.Build(n) for every worker count, and returns
// the explored space too (state s of the structure is state s of the
// space).  Topologies without a packed definition fall back to the
// sequential Build and return a nil space; token topologies too wide to
// pack take that route under ctx.
func BuildParallel(ctx context.Context, t Topology, n, workers int) (*kripke.Structure, *explore.Space, error) {
	pi, ok := Packed(t, n)
	if ok {
		return pi.build(ctx, workers)
	}
	if tt, ok := t.(*tokenTopology); ok {
		m, err := tt.build(ctx, n)
		return m, nil, err
	}
	m, err := t.Build(n)
	return m, nil, err
}

// build explores the packed instance with the given worker count, after
// its up-front size refusal, and applies its post-build steps.
func (pi PackedInstance) build(ctx context.Context, workers int) (*kripke.Structure, *explore.Space, error) {
	if pi.TooLarge != nil {
		return nil, nil, pi.TooLarge
	}
	m, sp, err := explore.Build(ctx, pi.Def, explore.Options{Workers: workers, MaxStates: pi.MaxStates})
	if err != nil {
		return nil, nil, err
	}
	m, err = pi.FinishBuilt(m)
	if err != nil {
		return nil, nil, err
	}
	return m, sp, nil
}

// IndexAction returns the action of the instance's automorphism group on
// the states of m, a structure built from the explored space sp (state s
// of m is state s of sp).  Each generator's state permutation is
// Group.Apply followed by Space.Lookup, and its index permutation follows
// from the field permutation, index k living in field k-1.
// kripke.NewIndexAction then verifies the action on m for every state and
// generator, so a group that is not an automorphism of the instance is an
// error naming the generator and the state.
func (pi PackedInstance) IndexAction(ctx context.Context, sp *explore.Space, m *kripke.Structure) (*kripke.IndexAction, error) {
	if pi.Group == nil {
		return nil, fmt.Errorf("family: %s has no symmetry group wired", pi.Def.Name)
	}
	if sp.NumStates() != m.NumStates() {
		return nil, fmt.Errorf("family: %s: space has %d states, structure %d", pi.Def.Name, sp.NumStates(), m.NumStates())
	}
	g := pi.Group
	perms := g.Generators()
	gens := make([]kripke.IndexGenerator, len(perms))
	for gi, p := range perms {
		states := make([]int32, sp.NumStates())
		for s, code := range sp.Codes() {
			if s&0xffff == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			img := g.Apply(p, code)
			t, ok := sp.Lookup(img)
			if !ok {
				return nil, fmt.Errorf("family: %s: generator %d maps state %d (code %#x) to code %#x, which is not a reachable state",
					pi.Def.Name, gi, s, code, img)
			}
			states[s] = t
		}
		// Field j of the image is field p[j] of the argument, so process
		// p[j]+1 moves to process j+1.
		index := make(map[int]int, len(p))
		for j, src := range p {
			index[int(src)+1] = j + 1
		}
		gens[gi] = kripke.IndexGenerator{States: states, Index: index}
	}
	a, err := kripke.NewIndexAction(m, gens)
	if err != nil {
		return nil, fmt.Errorf("family: %w", err)
	}
	return a, nil
}

// OptionalIndexAction is IndexAction for callers that use the action only
// to save work: it returns nil when the instance has no group, when no
// space was kept (sp is nil) or when the action fails verification, and an
// error only when ctx is done.  Without an action the caller takes its
// per-index path, which gives the same answers.
func (pi PackedInstance) OptionalIndexAction(ctx context.Context, sp *explore.Space, m *kripke.Structure) (*kripke.IndexAction, error) {
	if pi.Group == nil || sp == nil {
		return nil, nil
	}
	a, err := pi.IndexAction(ctx, sp, m)
	if err != nil {
		return nil, ctx.Err()
	}
	return a, nil
}
