package ring

import (
	"context"
	"fmt"

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

// buildSpace explores def(r) with one worker, refusing sizes beyond the
// explicit-construction limit up front.
func buildSpace(r int, def func(int) explore.Def) (*kripke.Structure, *explore.Space, error) {
	if r < 1 {
		return nil, nil, fmt.Errorf("ring: need at least one process, got %d", r)
	}
	if err := CheckSize(r); err != nil {
		return nil, nil, err
	}
	return explore.Build(context.Background(), def(r), explore.Options{Workers: 1, MaxStates: MaxExplicitStates})
}

// CheckSize returns the ErrTooLarge refusal Build gives an r-process ring
// whose r·2^r reachable states exceed MaxExplicitStates, or nil when the
// ring fits.
func CheckSize(r int) error {
	if expected := ExpectedReachable(r); expected > MaxExplicitStates {
		return fmt.Errorf("ring: r=%d has about %d reachable states, beyond the explicit limit %d; "+
			"use LocalCheck / the correspondence theorem instead: %w", r, expected, MaxExplicitStates, ErrTooLarge)
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
