package podc

import (
	"context"

	"repro/internal/kripke"
)

// SessionIndexActions returns the index actions a cold decision of the
// topology's (small, large) correspondence passes to IndexedCompute, nil
// for an instance that has none.
func SessionIndexActions(ctx context.Context, s *Session, topo Topology, small, large int) (left, right *kripke.IndexAction, err error) {
	sm, err := s.topologyInstance(ctx, topo.t, small)
	if err != nil {
		return nil, nil, err
	}
	lg, err := s.topologyInstance(ctx, topo.t, large)
	if err != nil {
		return nil, nil, err
	}
	if left, err = sm.indexAction(ctx); err != nil {
		return nil, nil, err
	}
	right, err = lg.indexAction(ctx)
	return left, right, err
}

// PairCSR returns the compact encoding (bisim.Relation.AppendCSR) of one
// index pair's decided relation.
func PairCSR(c *Correspondence) []byte { return c.res.Relation.AppendCSR(nil) }
