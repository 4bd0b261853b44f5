package ring

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/explore"
	"repro/internal/kripke"
)

// PackedDef returns the explore.Def of the r-process ring protocol: the
// packed-code successor rules and labelling every ring construction path
// explores.  The Succ closure is pure over the code, so it is safe for the
// engine's concurrent workers.
func PackedDef(r int) explore.Def {
	return packedDef(r, fmt.Sprintf("ring[%d]", r), false)
}

// PackedDefBuggy is PackedDef for the broken delayed-may-enter variant.
func PackedDefBuggy(r int) explore.Def {
	return packedDef(r, fmt.Sprintf("ring-buggy[%d]", r), true)
}

func packedDef(r int, name string, buggy bool) explore.Def {
	return explore.Def{
		Name:       name,
		Init:       packState(NewGlobalState(r)),
		NumIndices: r,
		Succ: func(dst []uint64, code uint64) ([]uint64, error) {
			return appendPackedSuccessors(dst, code, r, buggy), nil
		},
		Label: func(dst []kripke.Prop, code uint64) []kripke.Prop {
			return appendPackedLabel(dst, code, r)
		},
	}
}

// BuildOptions configures the parallel construction paths.
type BuildOptions struct {
	// Workers is the construction worker-pool size (zero: one per CPU).
	// The built instance is identical for every worker count.
	Workers int
	// MaxStates overrides MaxExplicitStates as the size refusal threshold
	// (zero keeps the default).
	MaxStates int
}

// BuildWith constructs M_r through the parallel packed-BFS engine.  The
// result is byte-identical (kripke.EncodeText) for every worker count; see
// internal/explore for the determinism argument.
func BuildWith(ctx context.Context, r int, opts BuildOptions) (*Instance, error) {
	m, sp, err := explorePacked(ctx, r, PackedDef, opts)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("ring: building M_%d: %w", r, err)
	}
	return instanceFromSpace(r, m, sp), nil
}

// explorePacked builds the (partial) structure of the r-process ring
// definition def(r), refusing sizes beyond the explicit-construction limit.
func explorePacked(ctx context.Context, r int, def func(int) explore.Def, opts BuildOptions) (*kripke.Structure, *explore.Space, error) {
	if r < 1 {
		return nil, nil, fmt.Errorf("ring: need at least one process, got %d", r)
	}
	if err := CheckSize(r, opts.MaxStates); err != nil {
		return nil, nil, err
	}
	limit := opts.MaxStates
	if limit <= 0 {
		limit = MaxExplicitStates
	}
	return explore.Build(ctx, def(r), explore.Options{Workers: opts.Workers, MaxStates: limit})
}

// CheckSize returns the ErrTooLarge refusal Build gives an r-process ring
// whose r·2^r reachable states exceed limit (zero or negative:
// MaxExplicitStates), or nil when the ring fits.
func CheckSize(r, limit int) error {
	if limit <= 0 {
		limit = MaxExplicitStates
	}
	if expected := expectedReachable(r); expected > limit {
		return fmt.Errorf("ring: r=%d has about %d reachable states, beyond the explicit limit %d; "+
			"use LocalCheck / the correspondence theorem instead: %w", r, expected, limit, ErrTooLarge)
	}
	return nil
}

// instanceFromSpace assembles the Instance views (decoded states, packed
// index) over an explored space and its structure.
func instanceFromSpace(r int, m *kripke.Structure, sp *explore.Space) *Instance {
	codes := sp.Codes()
	inst := &Instance{
		R:      r,
		M:      m,
		States: make([]GlobalState, len(codes)),
		space:  sp,
	}
	partsBacking := make([]Part, len(codes)*r)
	for s, code := range codes {
		parts := partsBacking[s*r : (s+1)*r : (s+1)*r]
		decodeInto(parts, code)
		inst.States[s] = GlobalState{Parts: parts}
	}
	return inst
}

// ExploreSpace explores the raw (label-free) reachable space of the
// r-process ring — codes and transitions only, no kripke structure, no
// GlobalState views — which is the representation that scales to tens of
// millions of states (r = 20 is 21M states).
func ExploreSpace(ctx context.Context, r int, opts BuildOptions) (*explore.Space, error) {
	if r < 1 {
		return nil, fmt.Errorf("ring: need at least one process, got %d", r)
	}
	if r > 31 {
		return nil, fmt.Errorf("ring: r=%d exceeds the 31-process packing capacity: %w", r, ErrTooLarge)
	}
	return explore.Explore(ctx, PackedDef(r), explore.Options{Workers: opts.Workers, MaxStates: opts.MaxStates})
}

// CheckSpaceSingleToken verifies invariant 3 of Section 5 (exactly one
// process in T ∪ C) structurally on every state of a raw explored space —
// the million-state analogue of Instance.CheckSingleTokenInvariant.  Token
// holders are exactly the parts with the high field bit set, so the check
// is one mask and popcount per state.
func CheckSpaceSingleToken(sp *explore.Space, r int) error {
	high := highBitsMask(r)
	for s, code := range sp.Codes() {
		if holders := bits.OnesCount64(code & high); holders != 1 {
			return fmt.Errorf("ring: state %d (code %#x) has %d token holders, want exactly 1", s, code, holders)
		}
	}
	return nil
}

// highBitsMask returns the mask selecting the high bit of every 2-bit field
// of an r-process code (0b1010...10 over 2r bits) — set exactly for parts T
// and C, the token holders.
func highBitsMask(r int) uint64 {
	return 0xaaaaaaaaaaaaaaaa >> (64 - 2*uint(r))
}
