package symmetry

import "repro/internal/explore"

// QuotientDef lifts an explore.Def to its quotient under g: the initial
// state and every successor are replaced by their orbit-canonical
// representatives.  Exploring the result enumerates one state per
// reachable orbit — this is how orbit counting scales past the full
// space's limits, and it composes with the parallel engine because Canon is
// safe for concurrent use.
func QuotientDef(def explore.Def, g *Group) explore.Def {
	return explore.Def{
		Name:       def.Name + "/" + g.Name(),
		Init:       g.Canon(def.Init),
		NumIndices: def.NumIndices,
		Succ: func(dst []uint64, code uint64) ([]uint64, error) {
			base := len(dst)
			dst, err := def.Succ(dst, code)
			if err != nil {
				return dst, err
			}
			for i := base; i < len(dst); i++ {
				dst[i] = g.Canon(dst[i])
			}
			return dst, nil
		},
		Label: def.Label,
	}
}
