package podc

import (
	"context"
	"sync/atomic"

	"repro/internal/family"
	"repro/internal/kripke"
)

// SessionIndexActions returns the index actions a cold decision of the
// topology's (small, large) correspondence passes to IndexedCompute, nil
// for an instance that has none.
func SessionIndexActions(ctx context.Context, s *Session, topo Topology, small, large int) (left, right *kripke.IndexAction, err error) {
	sm, lg, err := s.instancePair(ctx, topo.t, small, large)
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

// CountingPacked wraps topo so that every Packed call on it is counted;
// the returned function reads the count.
func CountingPacked(topo Topology) (Topology, func() int64) {
	c := &countingPackable{Topology: topo.t}
	return Topology{t: c}, c.calls.Load
}

type countingPackable struct {
	family.Topology
	calls atomic.Int64
}

func (c *countingPackable) Packed(n int) (family.PackedInstance, error) {
	c.calls.Add(1)
	return c.Topology.Packed(n)
}
